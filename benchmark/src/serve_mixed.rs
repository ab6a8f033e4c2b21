//! `serve_mixed`: an in-process `psc_serve::Server` on a loopback
//! socket, driven closed-loop by scripted clients — the only workload
//! that exercises frame parsing, the lane queue, in-flight joins, reply
//! serialization, the serve pool, and the fault/policy cache-key tails
//! under concurrency.

use crate::check::Results;
use crate::gen::{serve_universe, LabeledSpec, Lcg, Zipf};
use crate::host::{self, LapClock};
use crate::span::Tracer;
use crate::workload::{Checked, Repeat, Verdict, Workload};
use psc_experiments::harness::cluster;
use psc_mpi::RunResult;
use psc_runner::Engine;
use psc_serve::{proto, Server, ServerConfig};
use serde::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Distinct specs frames are drawn from (popularity rank = index).
pub const UNIVERSE: usize = 2000;
/// Specs per frame.
pub const BATCH: usize = 4;
/// Client connections, each a closed loop: a script that waits for a
/// frame's `done` before it sends the next. A constant, not `nproc`:
/// the scripts — and so the specs asked for — may not depend on the host.
pub const CLIENTS: usize = 2;
/// Frames per repeat, split evenly over the client connections. Kept
/// small because a frame currently costs a 40 ms delayed-ACK stall on
/// the server's unbuffered socket (README.md, "serve_mixed"); three
/// repeats still take 480 per-frame latency samples, 24 beyond p95.
pub const FRAMES: usize = 160;
const ZIPF_EXPONENT: f64 = 1.1;
const INTERACTIVE_PERCENT: u64 = 25;
/// Frames of the first client's script the warm-up replays.
const WARMUP_FRAMES: usize = 16;

/// One scripted request.
struct Frame {
    id: String,
    line: String,
    /// Universe indices asked for, in `seq` order.
    picks: Vec<usize>,
}

/// What one client connection saw.
struct ClientLog {
    latencies_ms: Vec<f64>,
    lines: Vec<String>,
    tracer: Tracer,
}

/// The reference answer for one universe entry: the exact `result`
/// object bytes, and the run they were carved from.
struct Reference {
    result_json: String,
    run: Arc<RunResult>,
}

pub struct ServeMixed {
    seed: u64,
    inject_reply: bool,
    universe: Vec<LabeledSpec>,
    scripts: Vec<Vec<Frame>>,
    /// Serial reference engine every reply is compared against.
    reference: Engine,
    answers: BTreeMap<usize, Reference>,
    /// What every repeat's clients saw and how many simulations its
    /// engine ran, kept for the off-clock comparison.
    transcripts: Vec<(Vec<ClientLog>, u64)>,
    executed: u64,
    failures: Vec<String>,
}

impl ServeMixed {
    pub fn new(seed: u64, inject_reply: bool) -> Self {
        ServeMixed {
            seed,
            inject_reply,
            universe: Vec::new(),
            scripts: Vec::new(),
            reference: Engine::serial(cluster()),
            answers: BTreeMap::new(),
            transcripts: Vec::new(),
            executed: 0,
            failures: Vec::new(),
        }
    }

    fn touched(&self) -> BTreeSet<usize> {
        self.scripts.iter().flatten().flat_map(|f| f.picks.iter().copied()).collect()
    }

    /// Run every spec the scripts touch on the serial reference engine.
    fn build_reference(&mut self) {
        for i in self.touched() {
            let spec = &self.universe[i].spec;
            let run = self.reference.run(spec);
            let key = self.reference.cache_key(spec);
            let result_json = serde::json::to_string(&proto::result_value(spec, key, &run));
            self.answers.insert(i, Reference { result_json, run });
        }
    }

    /// Compare every line every client received in one repeat with the
    /// reference; `simulated` is what that repeat's engine ran.
    fn check_transcripts(&mut self, logs: &[ClientLog], simulated: u64) {
        let mut bad = Vec::new();
        let mut executed = 0u64;
        for (script, log) in self.scripts.iter().zip(logs.iter()) {
            let by_id: BTreeMap<&str, &Frame> = script.iter().map(|f| (f.id.as_str(), f)).collect();
            let mut seen: BTreeMap<&str, Vec<bool>> =
                script.iter().map(|f| (f.id.as_str(), vec![false; f.picks.len()])).collect();
            let mut done = BTreeSet::new();
            for line in &log.lines {
                let Ok(v) = serde::json::parse(line) else {
                    bad.push(format!("unparseable reply: {line}"));
                    continue;
                };
                let frame = v.get("id").and_then(Value::as_str).and_then(|id| by_id.get(id));
                let (Some(frame), Some(&Value::Bool(true))) = (frame, v.get("ok")) else {
                    bad.push(format!("refused or unattributable reply: {line}"));
                    continue;
                };
                if v.get("done").is_some() {
                    let m = v.get("manifest");
                    let field = |k| m.and_then(|m| m.get(k)).and_then(Value::as_u64);
                    if field("specs") != Some(frame.picks.len() as u64) || !done.insert(&frame.id) {
                        bad.push(format!("{}: bad or repeated done manifest", frame.id));
                    }
                    executed += field("executed").unwrap_or(0);
                    continue;
                }
                let seq = v.get("seq").and_then(Value::as_u64).map(|s| s as usize);
                let ok = match (seq, v.get("result")) {
                    (Some(seq), Some(result)) if seq < frame.picks.len() => {
                        let flags = seen.get_mut(frame.id.as_str()).expect("frame is scripted");
                        let fresh = !std::mem::replace(&mut flags[seq], true);
                        fresh
                            && serde::json::to_string(result)
                                == self.answers[&frame.picks[seq]].result_json
                    }
                    _ => false,
                };
                if !ok {
                    bad.push(format!("{}: reply differs from the serial reference", frame.id));
                }
            }
            for (id, flags) in &seen {
                if !flags.iter().all(|&f| f) || !done.contains(&id.to_string()) {
                    bad.push(format!("{id}: missing reply or done line"));
                }
            }
        }
        // Dedup must be exact: one simulation per distinct key, and the
        // done manifests must account for each of them.
        let distinct = self.answers.len() as u64;
        if executed != distinct || simulated != distinct {
            bad.push(format!(
                "{distinct} distinct keys, {simulated} simulated, {executed} in done manifests"
            ));
        }
        self.executed = executed;
        self.failures.extend(bad);
    }
}

/// The seed of every request sequence. Which popularity ranks are asked
/// for, in which order and lane, is the same for every `--seed` — the
/// seed draws what sits at each rank — so that every seed asks for the
/// same number of class-B, faulted and policy-driven simulations.
const REQUEST_SEED: u64 = 0x5eed;

/// The script of every client over `universe`.
fn scripts(universe: &[LabeledSpec]) -> Vec<Vec<Frame>> {
    let zipf = Zipf::new(universe.len(), ZIPF_EXPONENT);
    (0..CLIENTS).map(|c| script(c, FRAMES / CLIENTS, &zipf, universe)).collect()
}

fn script(client: usize, frames: usize, zipf: &Zipf, universe: &[LabeledSpec]) -> Vec<Frame> {
    let mut rng = Lcg::new(REQUEST_SEED ^ (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    (0..frames)
        .map(|n| {
            let id = format!("c{client}-r{n}");
            let lane = if rng.next() % 100 < INTERACTIVE_PERCENT { "interactive" } else { "batch" };
            let picks: Vec<usize> = (0..BATCH).map(|_| zipf.sample(&mut rng)).collect();
            let specs: Vec<String> = picks.iter().map(|&i| universe[i].wire()).collect();
            let line = format!(
                r#"{{"id":"{id}","cmd":"run","lane":"{lane}","specs":[{}]}}"#,
                specs.join(",")
            );
            Frame { id, line, picks }
        })
        .collect()
}

/// One closed-loop client: send a frame, read until its `done` line.
/// Latency runs from the last byte sent to the `done` line read.
fn client(addr: SocketAddr, frames: &[Frame], mut tracer: Tracer) -> ClientLog {
    let stream = TcpStream::connect(addr).expect("connecting to the loopback server");
    stream.set_nodelay(true).expect("TCP_NODELAY");
    let mut reader = BufReader::new(stream.try_clone().expect("cloning the client socket"));
    let mut writer = stream;
    let mut latencies_ms = Vec::with_capacity(frames.len());
    let mut lines = Vec::with_capacity(frames.len() * (BATCH + 1));
    for frame in frames {
        tracer.begin("frame", "serve");
        writer.write_all(frame.line.as_bytes()).expect("sending a frame");
        writer.write_all(b"\n").expect("sending a frame");
        let t0 = host::now();
        loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line).expect("reading a reply");
            let finished =
                n == 0 || line.contains("\"done\":true") || line.contains("\"ok\":false");
            if n > 0 {
                lines.push(line.trim_end().to_string());
            }
            if finished {
                break;
            }
        }
        latencies_ms.push(host::since(t0) * 1e3);
        tracer.end();
    }
    ClientLog { latencies_ms, lines, tracer }
}

/// Start a server over a fresh engine, replay `scripts` (one client
/// connection each), shut the server down. Wall and CPU cover the
/// clients' sessions only, not start-up or shutdown.
fn replay(scripts: &[&[Frame]], t: &mut Tracer) -> (Repeat, Vec<ClientLog>, Arc<Engine>) {
    t.begin("Server::new", "serve");
    let engine = Arc::new(Engine::serial(cluster()));
    let config = ServerConfig { workers: host::nproc(), queue_capacity: 64, max_batch: BATCH };
    let server = Server::new(Arc::clone(&engine), config);
    let listener = TcpListener::bind("127.0.0.1:0").expect("binding a loopback port");
    let addr = listener.local_addr().expect("bound address");
    t.end();

    let (repeat, logs) = std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve_tcp(listener));
        t.begin("client sessions", "workload");
        let mut clock = LapClock::start();
        let handles: Vec<_> = scripts
            .iter()
            .enumerate()
            .map(|(c, &frames)| {
                let tracer = t.fork(c as u32 + 1);
                scope.spawn(move || client(addr, frames, tracer))
            })
            .collect();
        let logs: Vec<ClientLog> =
            handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        // Threads share the CPU clock: a frame has no CPU time of its own.
        let (wall_s, cpu_s) = clock.lap();
        let heap_held_mib = host::live_heap_mib();
        t.end();

        t.begin("shutdown", "serve");
        let mut control = TcpStream::connect(addr).expect("control connection");
        control.write_all(b"{\"id\":\"bye\",\"cmd\":\"shutdown\"}\n").expect("sending shutdown");
        let mut bye = String::new();
        let _ = BufReader::new(&control).read_line(&mut bye);
        drop(control);
        serving.join().expect("server thread").expect("serve_tcp");
        t.end();

        let frames: usize = scripts.iter().map(|s| s.len()).sum();
        let latencies_ms = logs.iter().flat_map(|l| l.latencies_ms.iter().copied()).collect();
        let specs = (frames * BATCH) as u64;
        (Repeat { wall_s, cpu_s, specs, latencies_ms, heap_held_mib }, logs)
    });
    (repeat, logs, engine)
}

impl Workload for ServeMixed {
    fn setup(&mut self) {
        self.universe = serve_universe(self.seed, UNIVERSE);
        self.scripts = scripts(&self.universe);
        let warmup = &self.scripts[0][..WARMUP_FRAMES];
        replay(&[warmup], &mut Tracer::disabled());
    }

    fn repeat(&mut self, t: &mut Tracer) -> Repeat {
        let scripts: Vec<&[Frame]> = self.scripts.iter().map(Vec::as_slice).collect();
        let (repeat, mut logs, engine) = replay(&scripts, t);
        for log in &mut logs {
            t.absorb(std::mem::replace(&mut log.tracer, Tracer::disabled()));
        }
        self.transcripts.push((logs, engine.cache_stats().misses));
        repeat
    }

    fn verify(&mut self) -> Verdict {
        self.build_reference();
        let mut transcripts = std::mem::take(&mut self.transcripts);
        if self.inject_reply {
            // Test hook: damage one byte of one served reply — the leading
            // digit of its time, so that the value really changes.
            let lines = &mut transcripts[0].0[0].lines;
            let line = lines.iter_mut().find(|l| l.contains("\"result\"")).expect("a reply");
            let at = line.find("\"time_s\":").expect("a time in the reply") + "\"time_s\":".len();
            let flipped = if &line[at..=at] == "7" { "3" } else { "7" };
            line.replace_range(at..=at, flipped);
        }
        for (logs, simulated) in &transcripts {
            self.check_transcripts(logs, *simulated);
        }

        let results: Results = self
            .answers
            .iter()
            .map(|(&i, r)| {
                let ls = self.universe[i].clone();
                (ls.label.clone(), (ls, Arc::clone(&r.run)))
            })
            .collect();
        let mut checked = Checked::default();
        checked.record(&results, true);
        checked.failures.append(&mut self.failures);
        let mut verdict = checked.into_verdict(self.answers.len() as u64);
        let specs = (self.scripts.iter().map(Vec::len).sum::<usize>() * BATCH) as u64;
        // The server keys each spec twice: once for the reply, once to run it.
        verdict.counts.lookups = 2 * specs;
        verdict.counts.frames = specs / BATCH as u64;
        verdict.counts.served_specs = specs;
        verdict.extras.insert("serve.executed", self.executed as f64);
        verdict.extras.insert("serve.dedup_rate", 1.0 - self.executed as f64 / specs as f64);
        verdict
    }

    fn golden_seed(&self) -> Option<u64> {
        Some(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the clients ask for comes from constants and the seed, never
    /// from the host: two scripts of 80 frames, touching exactly the
    /// specs whose digests are committed for seed 42.
    #[test]
    fn scripts_are_a_function_of_the_seed_alone() {
        let mut w = ServeMixed::new(42, false);
        w.universe = serve_universe(42, UNIVERSE);
        w.scripts = scripts(&w.universe);
        let frames: Vec<usize> = w.scripts.iter().map(Vec::len).collect();
        assert_eq!(frames, [FRAMES / CLIENTS; CLIENTS]);

        let golden =
            std::fs::read_to_string(crate::check::Golden::path_for("serve_mixed", Some(42)))
                .expect("the committed golden file");
        let committed: BTreeSet<&str> =
            golden.lines().filter_map(|l| l.split(' ').next()).collect();
        let touched: BTreeSet<String> = w
            .touched()
            .into_iter()
            .map(|i| format!("{:016x}", psc_runner::cache::fnv1a64(w.universe[i].label.as_bytes())))
            .collect();
        assert_eq!(touched.iter().map(String::as_str).collect::<BTreeSet<_>>(), committed);
    }
}
