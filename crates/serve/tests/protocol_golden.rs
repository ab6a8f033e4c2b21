//! Golden tests for the JSONL wire protocol: exact reply bytes for
//! every rejection path, and loop-survival for the ugly cases —
//! malformed frames, unknown fields, oversized batches, mid-stream
//! disconnects, and dead client writers. A bad frame (or a bad client)
//! must never poison the session loop or the server.

use psc_mpi::Cluster;
use psc_runner::{Engine, RunCache};
use psc_serve::{Server, ServerConfig, SessionEnd};
use std::io::{BufReader, Cursor, Read, Write};
use std::sync::{Arc, Mutex};

fn server(config: ServerConfig) -> Server {
    let engine =
        Arc::new(Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::in_memory()));
    Server::new(engine, config)
}

/// A capture buffer standing in for the client's socket.
#[derive(Clone, Default)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Capture {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Feed frames through one session and return the reply lines.
fn exchange(server: &Server, input: &str) -> Vec<String> {
    let out = Capture::default();
    server.session(Cursor::new(input.as_bytes()), Box::new(out.clone()));
    server.drain();
    out.text().lines().map(str::to_owned).collect()
}

#[test]
fn rejection_replies_are_exact_bytes() {
    let srv = server(ServerConfig { max_batch: 2, ..ServerConfig::default() });
    let input = concat!(
        "{not json\n",
        "[1,2]\n",
        "{\"cmd\":\"ping\"}\n",
        "{\"id\":\"a\",\"cmd\":\"ping\",\"extra\":true}\n",
        "{\"id\":\"b\",\"cmd\":\"fly\"}\n",
        "{\"id\":\"c\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"EP\"},{\"bench\":\"EP\"},{\"bench\":\"EP\"}]}\n",
        "{\"id\":\"d\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"EP\",\"nodes\":3}]}\n",
        "{\"id\":\"e\",\"cmd\":\"ping\"}\n",
    );
    let lines = exchange(&srv, input);
    assert_eq!(
        lines,
        vec![
            "{\"id\":null,\"ok\":false,\"error\":\"malformed frame: serde error: expected `\\\"` at byte 1\"}"
                .to_owned(),
            "{\"id\":null,\"ok\":false,\"error\":\"frame must be an object, got sequence\"}".to_owned(),
            "{\"id\":null,\"ok\":false,\"error\":\"missing required field \\\"id\\\"\"}".to_owned(),
            "{\"id\":\"a\",\"ok\":false,\"error\":\"unknown field \\\"extra\\\" in request (allowed: id, cmd, lane, specs)\"}".to_owned(),
            "{\"id\":\"b\",\"ok\":false,\"error\":\"unknown cmd \\\"fly\\\" (run, stats, ping, shutdown)\"}".to_owned(),
            "{\"id\":\"c\",\"ok\":false,\"error\":\"oversized batch: 3 specs exceeds the limit of 2\"}".to_owned(),
            "{\"id\":\"d\",\"ok\":false,\"error\":\"specs[0]: EP does not support 3 node(s)\"}".to_owned(),
            // The session survived every rejection and still answers.
            "{\"id\":\"e\",\"ok\":true,\"pong\":true}".to_owned(),
        ]
    );
}

#[test]
fn run_and_shutdown_replies_are_stable() {
    let srv = server(ServerConfig { workers: 1, ..ServerConfig::default() });
    // The run reply's floats come from the deterministic simulator, so
    // the whole exchange is reproducible; snapshot it against the
    // shared encoder fed by a direct engine execution.
    let engine = Arc::clone(srv.engine());
    let spec = psc_runner::RunSpec::uniform(
        psc_kernels::Benchmark::Ep,
        psc_kernels::ProblemClass::Test,
        2,
        3,
    );
    let reference =
        Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::in_memory());
    let expected_result =
        psc_serve::proto::result_value(&spec, engine.cache_key(&spec), &reference.run(&spec));

    let input = concat!(
        "{\"id\":\"r1\",\"cmd\":\"run\",\"lane\":\"interactive\",\"specs\":[{\"bench\":\"EP\",\"nodes\":2,\"gears\":3}]}\n",
        "{\"id\":\"q\",\"cmd\":\"shutdown\"}\n",
    );
    let out = Capture::default();
    let end = srv.session(Cursor::new(input.as_bytes()), Box::new(out.clone()));
    assert_eq!(end, SessionEnd::Shutdown);
    srv.drain();
    let lines: Vec<String> = out.text().lines().map(str::to_owned).collect();

    // Replies to in-flight work interleave with the shutdown ack, so
    // compare as sets of exact lines.
    let expected_run = format!(
        "{{\"id\":\"r1\",\"seq\":0,\"ok\":true,\"outcome\":\"executed\",\"result\":{}}}",
        serde::json::to_string(&expected_result)
    );
    let expected_done = "{\"id\":\"r1\",\"done\":true,\"ok\":true,\"manifest\":{\"lane\":\"interactive\",\"specs\":1,\"executed\":1,\"cache_hits\":0,\"inflight_joins\":0}}";
    let expected_bye = "{\"id\":\"q\",\"ok\":true,\"bye\":true}";
    assert_eq!(lines.len(), 3, "run reply, done line, bye: {lines:?}");
    for want in [expected_run.as_str(), expected_done, expected_bye] {
        assert!(lines.iter().any(|l| l == want), "missing {want} in {lines:?}");
    }
    // The done line follows the spec reply.
    let pos = |needle: &str| lines.iter().position(|l| l == needle).unwrap();
    assert!(pos(&expected_run) < pos(expected_done));
}

/// A reader that yields some valid frames and then fails mid-stream,
/// as a reset TCP connection would.
struct DroppingReader {
    data: Cursor<Vec<u8>>,
    dropped: bool,
}

impl Read for DroppingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.data.read(buf)?;
        if n == 0 {
            if self.dropped {
                return Err(std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset"));
            }
            self.dropped = true;
            return Err(std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer reset"));
        }
        Ok(n)
    }
}

#[test]
fn mid_stream_disconnect_is_a_clean_cancellation() {
    let srv = server(ServerConfig::default());

    // Client 1 submits work, then the connection dies before it reads
    // a single reply.
    let reader = DroppingReader {
        data: Cursor::new(
            b"{\"id\":\"gone\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"EP\",\"nodes\":2,\"gears\":2}]}\n".to_vec(),
        ),
        dropped: false,
    };
    let out1 = Capture::default();
    let end = srv.session(BufReader::new(reader), Box::new(out1.clone()));
    assert_eq!(end, SessionEnd::Disconnected);

    // The server is not poisoned: a second client asking for the same
    // spec gets full service, and the two requests cost one simulation
    // between them. *Which* request's worker simulates is a race — the
    // orphaned job and the second client's job contend for the same
    // in-flight claim, so the second client legitimately reads
    // `executed` when its worker wins — and is deliberately not
    // asserted.
    let out2 = Capture::default();
    let end = srv.session(
        Cursor::new(
            b"{\"id\":\"next\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"EP\",\"nodes\":2,\"gears\":2}]}\n".to_vec(),
        ),
        Box::new(out2.clone()),
    );
    assert_eq!(end, SessionEnd::Disconnected);
    srv.drain();
    let lines: Vec<String> = out2.text().lines().map(str::to_owned).collect();
    assert_eq!(lines.len(), 2, "one spec reply, one done line: {lines:?}");

    let snap = srv.engine().metrics().snapshot();
    assert_eq!(
        snap.get("engine_runs_simulated", &[]).unwrap().scalar(),
        1.0,
        "two requests for one spec must share one simulation"
    );

    // Whatever the label, the reply carries exactly the bytes a direct
    // execution produces.
    let spec = psc_runner::RunSpec::uniform(
        psc_kernels::Benchmark::Ep,
        psc_kernels::ProblemClass::Test,
        2,
        2,
    );
    let reference =
        Engine::serial(Cluster::athlon_fast_ethernet()).with_cache(RunCache::in_memory());
    let result = serde::json::to_string(&psc_serve::proto::result_value(
        &spec,
        srv.engine().cache_key(&spec),
        &reference.run(&spec),
    ));
    let outcomes = ["executed", "cache_hit", "inflight_join"];
    let expected = outcomes.map(|o| {
        format!("{{\"id\":\"next\",\"seq\":0,\"ok\":true,\"outcome\":\"{o}\",\"result\":{result}}}")
    });
    assert!(expected.contains(&lines[0]), "reply differs from direct execution: {}", lines[0]);
    assert!(lines[1].starts_with("{\"id\":\"next\",\"done\":true,\"ok\":true,"), "{}", lines[1]);
}

/// A writer that always fails, as a closed socket would.
struct DeadWriter;

impl Write for DeadWriter {
    fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
        Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "gone"))
    }
}

#[test]
fn dead_writer_never_panics_the_workers() {
    let srv = server(ServerConfig::default());
    let end = srv.session(
        Cursor::new(
            b"{\"id\":\"w\",\"cmd\":\"run\",\"specs\":[{\"bench\":\"CG\",\"nodes\":2,\"gears\":1}]}\n{\"id\":\"p\",\"cmd\":\"ping\"}\n".to_vec(),
        ),
        Box::new(DeadWriter),
    );
    assert_eq!(end, SessionEnd::Disconnected);
    srv.drain();
    // Work happened despite the dead client.
    let snap = srv.engine().metrics().snapshot();
    assert_eq!(snap.get("engine_runs_simulated", &[]).unwrap().scalar(), 1.0);
}

#[test]
fn blank_lines_are_ignored_keepalives() {
    let srv = server(ServerConfig::default());
    let lines = exchange(&srv, "\n   \n{\"id\":\"k\",\"cmd\":\"ping\"}\n\n");
    assert_eq!(lines, vec!["{\"id\":\"k\",\"ok\":true,\"pong\":true}".to_owned()]);
}
