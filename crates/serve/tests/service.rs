//! End-to-end service properties: the replay harness's byte-identity
//! and exactly-once guarantees, cumulative per-lane stats that survive
//! engine-window resets, and a real TCP exchange.

use psc_mpi::Cluster;
use psc_runner::{Engine, RunCache};
use psc_serve::{replay, ReplayConfig, Server, ServerConfig, SessionEnd};
use serde::Value;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::sync::{Arc, Mutex};

fn make_engine() -> Engine {
    Engine::serial(Cluster::athlon_fast_ethernet())
}

/// The tentpole property, via the public harness: ≥ 8 concurrent
/// clients with Zipf-skewed overlapping load, every reply
/// byte-identical to direct serial execution, every duplicated spec
/// simulated exactly once.
#[test]
fn replay_is_byte_identical_and_dedups_exactly() {
    let report = replay(&make_engine, ReplayConfig { clients: 8, ..ReplayConfig::default() });
    assert_eq!(report.clients, 8);
    assert_eq!(report.requests, 8 * 12);
    assert_eq!(report.specs, 8 * 12 * 4);
    assert!(report.byte_identical, "{} mismatched replies", report.mismatches);
    assert!(report.dedup_exact(), "{} executed vs {} unique", report.executed, report.unique_specs);
    assert!(
        report.dedup_rate > 0.5,
        "Zipf-skewed load must dedup heavily, got {}",
        report.dedup_rate
    );
    assert!(report.unique_specs > 1, "degenerate universe");
}

/// Replays are reproducible: the same seed yields the same traffic and
/// the same dedup accounting (latency and wall time aside).
#[test]
fn replay_accounting_is_seed_deterministic() {
    let cfg =
        ReplayConfig { clients: 3, requests_per_client: 5, seed: 7, ..ReplayConfig::default() };
    let a = replay(&make_engine, cfg);
    let b = replay(&make_engine, cfg);
    assert_eq!(a.unique_specs, b.unique_specs);
    assert_eq!(a.executed, b.executed);
    assert_eq!(a.specs, b.specs);
    assert!(a.byte_identical && b.byte_identical);
}

#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The satellite fix regression: lane stats and the `process_cache`
/// counters are *cumulative* — an engine-window reset
/// (`Engine::reset_cache_stats`, as `powerscale stats --reset`-style
/// tooling uses between observation windows) must not erase what the
/// service already reported.
#[test]
fn cumulative_stats_survive_engine_window_reset() {
    let engine = Arc::new(make_engine().with_cache(RunCache::in_memory()));
    let srv = Server::new(Arc::clone(&engine), ServerConfig::default());

    let batch = "{\"id\":\"w1\",\"cmd\":\"run\",\"lane\":\"interactive\",\"specs\":[{\"bench\":\"EP\",\"gears\":1},{\"bench\":\"EP\",\"gears\":1},{\"bench\":\"EP\",\"gears\":2}]}\n";
    let out = Capture::default();
    srv.session(Cursor::new(batch.as_bytes()), Box::new(out.clone()));
    // Wait for the window's work without tearing the pool down: a
    // reply is counted after its lookup, so three replies mean the
    // cache has accounted all three specs.
    while engine.metrics().snapshot().family_total("serve_results_total") < 3.0 {
        std::thread::yield_now();
    }

    let window = engine.cache_stats();
    assert_eq!(window.lookups(), 3, "first window saw three specs");

    // The reset clears only the engine-instance window...
    engine.reset_cache_stats();
    assert_eq!(engine.cache_stats().lookups(), 0);

    // ...while the service's cumulative views are untouched: they all
    // read the registry, which the reset never touches.
    let stats = srv.stats_value();
    let lane = stats.get("lanes").and_then(|l| l.get("interactive")).expect("interactive lane");
    assert_eq!(lane.get("specs").and_then(Value::as_u64), Some(3));
    assert_eq!(
        lane.get("executed").and_then(Value::as_u64).unwrap()
            + lane.get("cache_hits").and_then(Value::as_u64).unwrap()
            + lane.get("inflight_joins").and_then(Value::as_u64).unwrap(),
        3,
        "every spec answered, visible after reset: {stats:?}"
    );
    let cache = stats.get("process_cache").expect("process_cache block");
    let field = |name: &str| cache.get(name).and_then(Value::as_u64).expect(name);
    assert_eq!(field("hits") + field("misses"), 3, "the window's lookups outlive the reset");
    assert_eq!(field("misses"), 2, "two distinct specs simulated");
    assert_eq!(field("misses"), window.misses);
    assert_eq!(field("hits"), window.hits);

    // A second window accumulates on top rather than starting a new
    // service history.
    let out2 = Capture::default();
    srv.session(Cursor::new(batch.replace("w1", "w2").as_bytes().to_vec()), Box::new(out2.clone()));
    srv.drain();
    let stats = srv.stats_value();
    let lane = stats.get("lanes").and_then(|l| l.get("interactive")).expect("interactive lane");
    assert_eq!(lane.get("requests").and_then(Value::as_u64), Some(2));
    assert_eq!(lane.get("specs").and_then(Value::as_u64), Some(6));
    // The engine window, meanwhile, shows only post-reset work.
    assert_eq!(engine.cache_stats().lookups(), 3);
}

/// A real socket round-trip: ping, a run batch, stats, shutdown.
#[test]
fn tcp_session_round_trips() {
    let engine = Arc::new(make_engine().with_cache(RunCache::in_memory()));
    let srv = Arc::new(Server::new(Arc::clone(&engine), ServerConfig::default()));
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();

    std::thread::scope(|scope| {
        let srv2 = Arc::clone(&srv);
        scope.spawn(move || srv2.serve_tcp(listener));

        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let send = |line: &str| {
            let mut w = &stream;
            writeln!(w, "{line}").unwrap();
        };
        let mut recv = || {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line.trim_end().to_owned()
        };

        send("{\"id\":\"p\",\"cmd\":\"ping\"}");
        assert_eq!(recv(), "{\"id\":\"p\",\"ok\":true,\"pong\":true}");

        send(
            "{\"id\":\"r\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"MG\",\"nodes\":2,\"gears\":2}]}",
        );
        let reply = recv();
        assert!(
            reply.contains("\"id\":\"r\"") && reply.contains("\"outcome\":\"executed\""),
            "{reply}"
        );
        assert!(recv().contains("\"done\":true"));

        send("{\"id\":\"s\",\"cmd\":\"stats\"}");
        let stats = recv();
        assert!(stats.contains("\"runs_simulated\":1"), "{stats}");

        send("{\"id\":\"z\",\"cmd\":\"shutdown\"}");
        assert_eq!(recv(), "{\"id\":\"z\",\"ok\":true,\"bye\":true}");
    });
}

/// Backpressure end-to-end: a one-slot queue and one worker still
/// answer a burst far larger than the queue, in order, with nothing
/// lost — the session thread simply blocks on the full lane.
#[test]
fn bursts_survive_a_tiny_queue() {
    let engine = Arc::new(make_engine().with_cache(RunCache::in_memory()));
    let srv = Server::new(
        Arc::clone(&engine),
        ServerConfig { workers: 1, queue_capacity: 1, max_batch: 64 },
    );
    let specs: Vec<String> =
        (1..=4).cycle().take(32).map(|g| format!("{{\"bench\":\"EP\",\"gears\":{g}}}")).collect();
    let input = format!("{{\"id\":\"burst\",\"cmd\":\"run\",\"specs\":[{}]}}\n", specs.join(","));
    let out = Capture::default();
    let end = srv.session(Cursor::new(input.into_bytes()), Box::new(out.clone()));
    assert_eq!(end, SessionEnd::Disconnected);
    srv.drain();
    let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
    let replies = text.lines().filter(|l| l.contains("\"seq\":")).count();
    assert_eq!(replies, 32, "every spec answered: {text}");
    assert!(text.lines().last().unwrap().contains("\"done\":true"));
    // 32 specs over 4 distinct gears: exactly 4 simulations.
    let snap = engine.metrics().snapshot();
    assert_eq!(snap.get("engine_runs_simulated", &[]).unwrap().scalar(), 4.0);
}
