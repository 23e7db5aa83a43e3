//! The resident sibling query service.
//!
//! Batch runs answer one question and die; this crate keeps a scored
//! window alive and answers millions. The shape:
//!
//! 1. The caller (the CLI's `serve` subcommand) loads a store-backed
//!    window and runs the engine once, exactly as `batch` would.
//! 2. The run's pair sets are pivoted into the read-optimized
//!    [`sibling_core::query::WindowQueryIndex`] and published behind an
//!    `Arc` — immutable from then on.
//! 3. A [`Server`] spawns N resident reader threads on the executor pool
//!    ([`sibling_executor::ThreadPool::spawn_resident`]); each answers
//!    the line [`protocol`] over TCP or unix sockets through the shared
//!    [`QueryPlanner`]. The hot path takes no lock and performs no
//!    allocation: readers share the index through the `Arc` and reuse a
//!    per-thread response buffer.
//!
//! Determinism: every served answer is derived from the exact pair
//! vectors the batch run produced, so responses are bit-identical to
//! recomputing the window and filtering its output — see the module docs
//! of [`sibling_core::query`] for the argument and the property tests
//! pinning it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod ingest;
pub mod planner;
pub mod protocol;
pub mod replicate;
pub mod server;

pub use client::{Client, FailoverClient, RetryPolicy};
pub use ingest::{IngestSink, LiveWindow, RecoverReport};
pub use planner::QueryPlanner;
pub use protocol::{parse_request, ProtocolError, Request, Response};
pub use replicate::{follow, DeltaFeed, FollowerHandle, FollowerOptions, HealthGauges};
pub use server::{DrainReport, Endpoint, ServeOptions, ServeStatsSnapshot, Server, ServerHandle};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use sibling_core::query::WindowQueryIndex;
    use sibling_core::{Ratio, SiblingPair, SiblingSet};
    use sibling_executor::ThreadPool;
    use sibling_net_types::MonthDate;

    use super::*;

    fn planner() -> QueryPlanner {
        let set = SiblingSet::from_pairs(vec![SiblingPair {
            v4: "10.0.0.0/24".parse().unwrap(),
            v6: "2600:1::/48".parse().unwrap(),
            similarity: Ratio::ONE,
            shared_domains: 3,
            v4_domains: 3,
            v6_domains: 3,
        }]);
        let index = WindowQueryIndex::build(&[(MonthDate::new(2024, 1), set)]).unwrap();
        QueryPlanner::new(Arc::new(index))
    }

    fn start_tcp(readers: usize) -> ServerHandle {
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        server
            .start_with(
                planner(),
                ThreadPool::with_threads(2),
                readers,
                ServeOptions::default(),
            )
            .unwrap()
    }

    #[test]
    fn tcp_round_trip_and_clean_shutdown() {
        let handle = start_tcp(2);
        let mut client = Client::connect(handle.endpoint()).unwrap();
        assert_eq!(
            client.roundtrip("ping").unwrap(),
            Response::Ok(vec!["pong".into()])
        );
        assert_eq!(
            client
                .roundtrip("siblings 10.0.0.0/24 2600:1::/48 2024-01")
                .unwrap(),
            Response::Ok(vec!["10.0.0.0/24 2600:1::/48 1/1 3 3 3".into()])
        );
        drop(handle); // joins the readers; must not hang
    }

    #[test]
    fn malformed_requests_keep_the_connection_alive() {
        let handle = start_tcp(1);
        let mut client = Client::connect(handle.endpoint()).unwrap();
        let err = client.roundtrip("no-such-verb a b").unwrap();
        assert!(matches!(err, Response::Err { ref code, .. } if code == "unknown-verb"));
        let err = client.roundtrip("").unwrap();
        assert!(matches!(err, Response::Err { ref code, .. } if code == "empty"));
        // The same connection still answers real queries.
        assert_eq!(
            client.roundtrip("months").unwrap(),
            Response::Ok(vec!["2024-01".into()])
        );
    }

    #[test]
    fn concurrent_clients_on_multiple_readers() {
        let handle = start_tcp(3);
        let endpoint = handle.endpoint().to_string();
        let threads: Vec<_> = (0..3)
            .map(|_| {
                let endpoint = endpoint.clone();
                std::thread::spawn(move || {
                    let mut client = Client::connect(&endpoint).unwrap();
                    for _ in 0..50 {
                        assert_eq!(
                            client.roundtrip("partners 10.0.0.0/24 2024-01 0").unwrap(),
                            Response::Ok(vec!["10.0.0.0/24 2600:1::/48 1/1 3 3 3".into()])
                        );
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
    }

    #[test]
    fn connections_beyond_the_cap_are_shed_with_busy() {
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let handle = server
            .start_with(
                planner(),
                ThreadPool::with_threads(2),
                2,
                ServeOptions {
                    max_conns: 1,
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        let mut first = Client::connect(handle.endpoint()).unwrap();
        assert!(matches!(first.roundtrip("ping").unwrap(), Response::Ok(_)));
        // The second connection exceeds the cap: one typed busy line.
        let mut second = Client::connect(handle.endpoint()).unwrap();
        match second.roundtrip("ping").unwrap() {
            Response::Err { code, message } => {
                assert_eq!(code, "busy");
                assert!(message.contains("retry"), "{message}");
            }
            other => panic!("expected busy shed, got {other:?}"),
        }
        // The capped connection is unaffected.
        assert!(matches!(first.roundtrip("ping").unwrap(), Response::Ok(_)));
        assert!(handle.stats().shed_connections >= 1);
    }

    #[test]
    fn pressure_sheds_expensive_verbs_only() {
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let handle = server
            .start_with(
                planner(),
                ThreadPool::with_threads(2),
                2,
                ServeOptions {
                    shed_expensive_at: 1, // any active connection = pressure
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        let mut client = Client::connect(handle.endpoint()).unwrap();
        match client.roundtrip("partners 10.0.0.0/24 2024-01 0").unwrap() {
            Response::Err { code, .. } => assert_eq!(code, "busy"),
            other => panic!("expected shed partners, got {other:?}"),
        }
        // Point lookups and liveness still answer on the same connection.
        assert_eq!(
            client
                .roundtrip("siblings 10.0.0.0/24 2600:1::/48 2024-01")
                .unwrap(),
            Response::Ok(vec!["10.0.0.0/24 2600:1::/48 1/1 3 3 3".into()])
        );
        assert!(handle.stats().shed_requests >= 1);
    }

    #[test]
    fn drain_finishes_in_flight_and_reports() {
        let handle = start_tcp(2);
        let mut client = Client::connect(handle.endpoint()).unwrap();
        assert!(matches!(client.roundtrip("ping").unwrap(), Response::Ok(_)));
        drop(client);
        let report = handle.drain();
        assert!(report.drained, "no in-flight work should remain");
        assert!(report.stats.served >= 1);
        assert_eq!(report.stats.panics, 0);
    }

    #[test]
    fn slow_request_lines_hit_the_deadline() {
        use std::io::{Read as _, Write as _};
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let handle = server
            .start_with(
                planner(),
                ThreadPool::with_threads(1),
                1,
                ServeOptions {
                    request_deadline: std::time::Duration::from_millis(100),
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        let addr = handle.endpoint().strip_prefix("tcp://").unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        // A slow-loris request: bytes arrive, the newline never does.
        stream.write_all(b"pin").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap(); // server closes
        assert!(response.starts_with("err timeout "), "{response:?}");
        assert!(response.contains("request"), "{response:?}");
        assert!(handle.stats().timeouts >= 1);
    }

    #[test]
    fn idle_connections_are_closed() {
        use std::io::Read as _;
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let handle = server
            .start_with(
                planner(),
                ThreadPool::with_threads(1),
                1,
                ServeOptions {
                    idle_timeout: std::time::Duration::from_millis(100),
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        let addr = handle.endpoint().strip_prefix("tcp://").unwrap();
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap(); // server closes
        assert!(response.starts_with("err timeout "), "{response:?}");
        assert!(response.contains("idle"), "{response:?}");
    }

    #[test]
    fn retry_roundtrip_rides_out_a_shed_connection() {
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let handle = server
            .start_with(
                planner(),
                ThreadPool::with_threads(2),
                2,
                ServeOptions {
                    max_conns: 1,
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        let endpoint = handle.endpoint().to_string();
        let mut holder = Client::connect(&endpoint).unwrap();
        assert!(matches!(holder.roundtrip("ping").unwrap(), Response::Ok(_)));
        let retrier = std::thread::spawn(move || {
            let policy = RetryPolicy {
                attempts: 10,
                base: std::time::Duration::from_millis(10),
                ..RetryPolicy::default()
            };
            let mut client = Client::connect_with(&endpoint, &policy).unwrap();
            client.retry_roundtrip("ping", &policy)
        });
        // Free the slot while the retrier is backing off.
        std::thread::sleep(std::time::Duration::from_millis(40));
        drop(holder);
        let response = retrier.join().unwrap().unwrap();
        assert_eq!(response, Response::Ok(vec!["pong".into()]));
    }

    #[test]
    fn connect_with_gives_up_after_its_attempts() {
        // Nothing listens here (bind, learn the port, drop the listener).
        let port = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().port()
        };
        let policy = RetryPolicy {
            attempts: 3,
            base: std::time::Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let err = Client::connect_with(&format!("tcp://127.0.0.1:{port}"), &policy).unwrap_err();
        assert!(RetryPolicy::transient(&err), "{err}");
    }

    /// Property: every backoff delay stays within its configured bounds —
    /// `min(base·2^attempt, cap)/2 ≤ delay(attempt) ≤ cap` — for any
    /// base, cap, seed and attempt, including extreme shifts.
    #[test]
    fn prop_backoff_delays_stay_within_bounds() {
        use proptest::test_runner::TestRunner;
        let mut runner = TestRunner::default();
        let strategy = (1u64..10_000, 1u64..10_000, 0u64..u64::MAX, 0u32..80);
        runner
            .run(&strategy, |(base_ms, cap_ms, seed, attempt)| {
                let policy = RetryPolicy {
                    attempts: 4,
                    base: std::time::Duration::from_millis(base_ms),
                    cap: std::time::Duration::from_millis(cap_ms),
                    seed,
                };
                let delay = policy.delay(attempt);
                let full = policy
                    .base
                    .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
                    .min(policy.cap);
                assert!(delay <= policy.cap, "{delay:?} > cap {:?}", policy.cap);
                assert!(delay <= full, "{delay:?} > full {full:?}");
                assert!(delay >= full / 2, "{delay:?} < {:?}", full / 2);
                Ok(())
            })
            .unwrap();
    }

    /// A minimal writer for wire-path tests: every accepted append
    /// publishes a one-pair month, without the full engine behind it.
    struct StubSink {
        window: Arc<sibling_core::PublishedWindow>,
        months: Vec<(MonthDate, SiblingSet)>,
    }

    impl IngestSink for StubSink {
        fn ingest(&mut self, delta: &sibling_dns::SnapshotDelta) -> Result<u64, String> {
            let tail = self.months.last().expect("seeded").0;
            if delta.from_date() != tail {
                return Err(format!(
                    "delta base {} is not the tail {tail}",
                    delta.from_date()
                ));
            }
            self.months.push((
                delta.to_date(),
                SiblingSet::from_pairs(vec![SiblingPair {
                    v4: "10.0.0.0/24".parse().unwrap(),
                    v6: "2600:1::/48".parse().unwrap(),
                    similarity: Ratio::ONE,
                    shared_domains: 1,
                    v4_domains: 1,
                    v6_domains: 1,
                }]),
            ));
            let index = WindowQueryIndex::build(&self.months).map_err(|e| e.to_string())?;
            Ok(self.window.swap(Arc::new(index)))
        }
    }

    #[test]
    fn live_daemon_ingests_over_the_wire() {
        use sibling_dns::{DnsSnapshot, SnapshotDelta};
        let seed = SiblingSet::from_pairs(vec![SiblingPair {
            v4: "10.0.0.0/24".parse().unwrap(),
            v6: "2600:1::/48".parse().unwrap(),
            similarity: Ratio::ONE,
            shared_domains: 1,
            v4_domains: 1,
            v6_domains: 1,
        }]);
        let months = vec![(MonthDate::new(2024, 1), seed)];
        let index = WindowQueryIndex::build(&months).unwrap();
        let window = Arc::new(sibling_core::PublishedWindow::new(Arc::new(index)));
        let sink = StubSink {
            window: Arc::clone(&window),
            months,
        };
        let server = Server::bind(&Endpoint::Tcp("127.0.0.1:0".into())).unwrap();
        let handle = server
            .start_live(
                QueryPlanner::live(window),
                ThreadPool::with_threads(2),
                2,
                ServeOptions::default(),
                Box::new(sink),
            )
            .unwrap();
        let mut client = Client::connect(handle.endpoint()).unwrap();
        assert_eq!(
            client.roundtrip("epoch").unwrap(),
            Response::Ok(vec!["1".into()])
        );

        // An empty month-over-month delta carried as hex.
        let delta = SnapshotDelta::diff(
            &DnsSnapshot::new(MonthDate::new(2024, 1)),
            &DnsSnapshot::new(MonthDate::new(2024, 2)),
        );
        let line = Request::Ingest(delta).to_string();
        assert_eq!(
            client.roundtrip(&line).unwrap(),
            Response::Ok(vec!["2".into()]),
            "ingest answers the published epoch"
        );
        assert_eq!(
            client.roundtrip("months").unwrap(),
            Response::Ok(vec!["2024-01".into(), "2024-02".into()])
        );
        assert_eq!(
            client.roundtrip("epoch").unwrap(),
            Response::Ok(vec!["2".into()])
        );

        // A stale delta fails typed, without advancing the epoch.
        let stale = SnapshotDelta::diff(
            &DnsSnapshot::new(MonthDate::new(2024, 1)),
            &DnsSnapshot::new(MonthDate::new(2024, 2)),
        );
        match client
            .roundtrip(&Request::Ingest(stale).to_string())
            .unwrap()
        {
            Response::Err { code, message } => {
                assert_eq!(code, "ingest-failed");
                assert!(message.contains("2024-01"), "{message}");
            }
            other => panic!("expected ingest-failed, got {other:?}"),
        }

        // Health reflects the writer's counters.
        match client.roundtrip("health").unwrap() {
            Response::Ok(lines) => {
                for want in [
                    "months 2",
                    "epoch 2",
                    "ingests 2",
                    "ingest-failures 1",
                    "epochs-published 1",
                    "ingest-lag 0",
                ] {
                    assert!(
                        lines.iter().any(|l| l == want),
                        "missing {want:?} in {lines:?}"
                    );
                }
            }
            other => panic!("expected health lines, got {other:?}"),
        }
        let stats = handle.stats();
        assert_eq!(
            (stats.ingests, stats.ingest_failures, stats.epochs),
            (2, 1, 1)
        );
    }

    #[test]
    fn failover_client_rotates_past_dead_replicas() {
        // A dead endpoint (bound, learned, dropped) and a live replica.
        let dead = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            format!("tcp://{}", listener.local_addr().unwrap())
        };
        let handle = start_tcp(2);
        let policy = RetryPolicy {
            attempts: 3,
            base: std::time::Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let mut client =
            FailoverClient::new([dead.clone(), handle.endpoint().to_string()], policy).unwrap();
        // The dead replica is rotated past transparently.
        assert_eq!(
            client.roundtrip("ping").unwrap(),
            Response::Ok(vec!["pong".into()])
        );
        // The surviving connection is sticky: the next round-trip
        // answers without re-dialing the dead one.
        assert_eq!(
            client.roundtrip("months").unwrap(),
            Response::Ok(vec!["2024-01".into()])
        );
        // Every replica down: the transport error surfaces after the
        // retry budget, distinguishable from a rejected request.
        drop(handle);
        let err = client.roundtrip("ping").unwrap_err();
        assert!(RetryPolicy::transient(&err), "{err}");

        assert!(FailoverClient::new(Vec::<String>::new(), policy).is_err());
    }

    #[test]
    fn sub_without_a_feed_answers_the_typed_no_feed_error() {
        let handle = start_tcp(1);
        let mut client = Client::connect(handle.endpoint()).unwrap();
        match client.roundtrip("sub 0").unwrap() {
            Response::Err { code, message } => {
                assert_eq!(code, "no-feed");
                assert!(message.contains("primary"), "{message}");
            }
            other => panic!("expected no-feed, got {other:?}"),
        }
        // The connection keeps serving reads.
        assert_eq!(
            client.roundtrip("ping").unwrap(),
            Response::Ok(vec!["pong".into()])
        );
    }

    #[test]
    fn read_only_daemons_reject_ingest_with_a_typed_error() {
        use sibling_dns::{DnsSnapshot, SnapshotDelta};
        let handle = start_tcp(1);
        let mut client = Client::connect(handle.endpoint()).unwrap();
        let delta = SnapshotDelta::diff(
            &DnsSnapshot::new(MonthDate::new(2024, 1)),
            &DnsSnapshot::new(MonthDate::new(2024, 2)),
        );
        match client
            .roundtrip(&Request::Ingest(delta).to_string())
            .unwrap()
        {
            Response::Err { code, message } => {
                assert_eq!(code, "read-only");
                assert!(message.contains("--ingest"), "{message}");
            }
            other => panic!("expected read-only, got {other:?}"),
        }
        // The connection keeps serving reads.
        assert_eq!(
            client.roundtrip("ping").unwrap(),
            Response::Ok(vec!["pong".into()])
        );
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trip_and_file_cleanup() {
        let path =
            std::env::temp_dir().join(format!("sibling-service-test-{}.sock", std::process::id()));
        let server = Server::bind(&Endpoint::Unix(path.clone())).unwrap();
        assert_eq!(server.endpoint(), format!("unix://{}", path.display()));
        let handle = server
            .start_with(
                planner(),
                ThreadPool::with_threads(1),
                1,
                ServeOptions::default(),
            )
            .unwrap();
        let mut client = Client::connect(handle.endpoint()).unwrap();
        match client.roundtrip("stats 2024-01").unwrap() {
            Response::Ok(rows) => {
                assert_eq!(rows.len(), 1);
                assert!(rows[0].starts_with("2024-01"), "{rows:?}");
                assert!(rows[0].contains("100.0%"), "{rows:?}");
            }
            err => panic!("unexpected {err:?}"),
        }
        drop(handle);
        assert!(!path.exists(), "socket file removed on shutdown");
    }
}
