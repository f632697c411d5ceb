//! The `node2vec_serve` workload: node2vec walks → SGNS → `EmbeddingSet`
//! → `x2v_serve::publish`, served by an in-process daemon, then an
//! open-loop phase at a fixed rate (with hot reloads beside the reads)
//! and a closed-loop phase for capacity.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use x2v_ckpt::crc32::Crc32;
use x2v_ckpt::Store;
use x2v_embed::walks::{generate_walks, WalkConfig};
use x2v_embed::word2vec::{SgnsConfig, Word2Vec};
use x2v_graph::Graph;
use x2v_guard::{Budget, GuardError};
use x2v_serve::{publish, Config, EmbeddingSet, Hit, Server};

use crate::inputs::{self, NODES, SETUP_REPS};
use crate::stats::{crc_f64, median, quantile, tail};
use crate::trace::{Layers, PassTrace};
use crate::{Args, Outcome};

/// Embedding dimension: 20 000 × 32 × 8 B ≈ 5.1 MB, beyond the reference
/// host's 2 MiB-per-core L2 and inside its 105 MiB L3.
const DIM: usize = 32;
const WALKS_PER_NODE: usize = 4;
const WALK_LENGTH: usize = 20;
/// SGNS epochs over the 1.6M-token corpus.
const EPOCHS: usize = 1;
/// node2vec return and in-out parameters.
const P: f64 = 0.5;
const Q: f64 = 2.0;
/// `k` of every `/similar` query.
const K: usize = 10;
/// Share of `/similar` queries in the mix; the rest are `/embed/<id>`.
const SIMILAR_SHARE: f64 = 0.75;
/// Open-loop arrival rate in queries per second: about a quarter of the
/// closed-loop capacity measured on the reference host when this
/// benchmark was written (see `pipebench/METRICS.md` for why not half).
/// Fixed, so later versions of the program face the same load.
const OPEN_RATE_QPS: f64 = 500.0;
/// Shares of `--seconds` given to the open- and closed-loop phases.
const OPEN_SHARE: f64 = 0.4;
const CLOSED_SHARE: f64 = 0.2;
/// Re-publications of the served set during the open loop.
const RELOADS: usize = 3;
/// Train passes per run; `train_s` is their median.
const TRAIN_REPS: usize = 3;
/// Store job the daemon serves.
const JOB: &str = "node2vec";
/// Longest wait for `/ready` to report a published generation.
const READY_TIMEOUT: Duration = Duration::from_secs(30);

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn walk_config(seed: u64) -> WalkConfig {
    WalkConfig {
        walks_per_node: WALKS_PER_NODE,
        walk_length: WALK_LENGTH,
        p: P,
        q: Q,
        seed: seed ^ 0x3a1c,
    }
}

fn sgns_config(seed: u64) -> SgnsConfig {
    SgnsConfig {
        dim: DIM,
        epochs: EPOCHS,
        seed: seed ^ 0x2fec,
        ..SgnsConfig::default()
    }
}

fn node_id(i: usize) -> String {
    format!("n{i}")
}

/// The daemon configuration: production defaults with the snapshot
/// flusher off and one worker per core. Telemetry is switched on
/// process-wide by [`run`].
fn daemon_config() -> Config {
    Config {
        workers: threads(),
        flush_secs: 0,
        job: JOB.to_string(),
        ..Config::default()
    }
}

/// A scratch directory inside the working directory, removed on drop.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> std::io::Result<Self> {
        let dir = Path::new(".pipebench_run").join(format!("{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent behind only if another run still uses it.
        let _ = std::fs::remove_dir(".pipebench_run");
    }
}

// ---------------------------------------------------------------- HTTP --

/// One HTTP GET on a fresh connection: `(status, body)`.
fn get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    let timeout = Some(Duration::from_secs(5));
    stream.set_read_timeout(timeout)?;
    stream.set_write_timeout(timeout)?;
    stream.write_all(format!("GET {path} HTTP/1.1\r\nHost: pipebench\r\n\r\n").as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw);
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let status = text
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.split(' ').next())
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let body = text.split_once("\r\n\r\n").ok_or_else(bad)?.1.to_string();
    Ok((status, body))
}

/// Polls `/ready` until the daemon serves generation `generation` or later.
fn wait_ready(addr: SocketAddr, generation: u64) -> Result<(), GuardError> {
    let deadline = Instant::now() + READY_TIMEOUT;
    loop {
        if let Ok((200, body)) = get(addr, "/ready") {
            if json_u64(&body, "\"generation\": ").is_some_and(|g| g >= generation) {
                return Ok(());
            }
        }
        if Instant::now() > deadline {
            return Err(GuardError::storage(
                "pipebench/ready",
                format!("generation {generation} not served within {READY_TIMEOUT:?}"),
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn json_u64(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses the `"hits"` of a `/similar` body.
fn parse_hits(body: &str) -> Option<Vec<(String, f64)>> {
    let list = &body[body.find("\"hits\": [")? + 9..];
    let list = &list[..list.rfind(']')?];
    let mut hits = Vec::new();
    for obj in list.split('{').skip(1) {
        let id_start = obj.find("\"id\": \"")? + 7;
        let id_len = obj[id_start..].find('"')?;
        let id = obj[id_start..id_start + id_len].to_string();
        let score_start = obj.find("\"score\": ")? + 9;
        let score_end = obj[score_start..].find('}')? + score_start;
        hits.push((id, obj[score_start..score_end].trim().parse().ok()?));
    }
    Some(hits)
}

/// Parses the `"vector"` of an `/embed` body.
fn parse_vector(body: &str) -> Option<Vec<f64>> {
    let list = &body[body.find("\"vector\": [")? + 11..];
    let list = &list[..list.find(']')?];
    list.split(',').map(|v| v.trim().parse().ok()).collect()
}

// ---------------------------------------------------------------- load --

/// One planned query.
#[derive(Clone, Debug)]
struct Query {
    /// Row of the queried node.
    row: usize,
    /// `/similar` (true) or `/embed` (false).
    similar: bool,
    /// The request path.
    path: String,
}

impl Query {
    fn draw(rng: &mut StdRng, rows: usize) -> Query {
        let row = rng.random_range(0..rows);
        let similar = rng.random_bool(SIMILAR_SHARE);
        let path = if similar {
            format!("/similar?id={}&k={K}", node_id(row))
        } else {
            format!("/embed/{}", node_id(row))
        };
        Query { row, similar, path }
    }
}

/// What one request returned.
struct Sample {
    query: Query,
    /// Latency in ms: from the due time (open loop) or the send (closed).
    latency_ms: f64,
    /// How late the request was sent, in ms (open loop only).
    late_ms: f64,
    /// Status code, or `None` for a transport error.
    status: Option<u16>,
    body: String,
}

fn send(addr: SocketAddr, query: Query, due: Instant) -> Sample {
    let sent = Instant::now();
    let (status, body) = match get(addr, &query.path) {
        Ok((s, b)) => (Some(s), b),
        Err(_) => (None, String::new()),
    };
    Sample {
        query,
        latency_ms: due.elapsed().as_secs_f64() * 1e3,
        late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
        status,
        body,
    }
}

/// Open loop: request `i` of `plan` is due at `start + i / rate`, sent by
/// whichever of `connections` senders is free first, and timed from its
/// due time, so a stall also charges the requests queued behind it.
fn open_loop(addr: SocketAddr, plan: Vec<Query>, rate: f64, connections: usize) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..connections {
            s.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(query) = plan.get(i) else { break };
                    let due = start + Duration::from_secs_f64(i as f64 / rate);
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    mine.push(send(addr, query.clone(), due));
                }
                out.lock().expect("sample lock").extend(mine);
            });
        }
    });
    out.into_inner().expect("sample lock")
}

/// Closed loop: `clients` clients, each sending its next query as soon as
/// the previous one completes, for `secs` seconds. Returns the samples and
/// the measured wall time.
fn closed_loop(
    addr: SocketAddr,
    seed: u64,
    rows: usize,
    clients: usize,
    secs: f64,
) -> (Vec<Sample>, f64) {
    let out = Mutex::new(Vec::new());
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    std::thread::scope(|s| {
        for c in 0..clients {
            let out = &out;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed).split_stream(c as u64 + 1);
                let mut mine = Vec::new();
                while Instant::now() < end {
                    mine.push(send(addr, Query::draw(&mut rng, rows), Instant::now()));
                }
                out.lock().expect("sample lock").extend(mine);
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    (out.into_inner().expect("sample lock"), wall)
}

/// The output check of every response against the exact in-process
/// answer.
#[derive(Default, Debug)]
struct Verdict {
    attempted: u64,
    /// Non-2xx, transport errors, malformed bodies, wrong `/embed` vectors.
    failed: u64,
    /// `/similar` hits equal (id and score bits) to `EmbeddingSet::top_k`.
    hits_matched: u64,
    hits_expected: u64,
}

impl Verdict {
    fn recall(&self) -> f64 {
        self.hits_matched as f64 / self.hits_expected.max(1) as f64
    }

    fn merge(&mut self, o: Verdict) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.hits_matched += o.hits_matched;
        self.hits_expected += o.hits_expected;
    }
}

/// Checks every sample against `set`, on `threads` threads.
fn verify(set: &EmbeddingSet, samples: &[Sample], threads: usize) -> Verdict {
    let chunk = samples.len().div_ceil(threads.max(1)).max(1);
    let parts: Vec<Verdict> = std::thread::scope(|s| {
        let handles: Vec<_> = samples
            .chunks(chunk)
            .map(|part| s.spawn(move || verify_part(set, part)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("verifier thread"))
            .collect()
    });
    let mut total = Verdict::default();
    for p in parts {
        total.merge(p);
    }
    total
}

fn verify_part(set: &EmbeddingSet, samples: &[Sample]) -> Verdict {
    let mut v = Verdict::default();
    let mut exact: HashMap<usize, Vec<Hit>> = HashMap::new();
    for s in samples {
        v.attempted += 1;
        if !matches!(s.status, Some(200..=299)) {
            v.failed += 1;
            continue;
        }
        let id = node_id(s.query.row);
        if s.query.similar {
            let want = exact.entry(s.query.row).or_insert_with(|| {
                set.top_k(&id, K, &Budget::unlimited())
                    .expect("queried ids exist in the set")
            });
            v.hits_expected += want.len() as u64;
            match parse_hits(&s.body) {
                Some(got) => {
                    v.hits_matched += got
                        .iter()
                        .zip(want.iter())
                        .filter(|((gid, gs), w)| *gid == w.id && gs.to_bits() == w.score.to_bits())
                        .count() as u64;
                }
                None => v.failed += 1,
            }
        } else {
            let ok = parse_vector(&s.body).is_some_and(|got| {
                set.vector(&id).is_some_and(|want| {
                    got.len() == want.len()
                        && got
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
            });
            if !ok {
                v.failed += 1;
            }
        }
    }
    v
}

// --------------------------------------------------------------- phases --

/// A running daemon over its own store.
struct Daemon {
    server: Server,
    store: Store,
    addr: SocketAddr,
}

impl Daemon {
    fn start(root: &Path) -> Result<Daemon, GuardError> {
        let store = Store::open(root)?;
        let server = Server::start(daemon_config(), Store::open(root)?)?;
        let addr = server.addr();
        Ok(Daemon {
            server,
            store,
            addr,
        })
    }
}

/// The train pass: walks → SGNS → `EmbeddingSet` → publish, ending when
/// the daemon reports the new generation on `/ready`.
fn train(
    g: &Graph,
    seed: u64,
    daemon: &Daemon,
    t: &mut PassTrace,
    layers: Option<&mut Layers>,
) -> Result<EmbeddingSet, GuardError> {
    let corpus = t.call("embed.walks", || generate_walks(g, &walk_config(seed)));
    let model = t.call("embed.sgns", || {
        Word2Vec::train(&corpus, g.order(), &sgns_config(seed))
    });
    let rows: Vec<(String, Vec<f64>)> = (0..g.order())
        .map(|i| (node_id(i), model.vector(i).to_vec()))
        .collect();
    let set = t.call("serve.index_build", || EmbeddingSet::new(rows))?;
    let written = counter(CKPT_BYTES_WRITTEN);
    let generation = t.call("ckpt.publish", || publish(&daemon.store, JOB, &set))?;
    let written = counter(CKPT_BYTES_WRITTEN) - written;
    t.call("serve.ready_wait", || wait_ready(daemon.addr, generation))?;
    if let Some(layers) = layers {
        let tokens: usize = corpus.iter().map(Vec::len).sum();
        layers.count("embed.walk_tokens", tokens as f64);
        layers.count("ckpt.publish_bytes", written as f64);
    }
    Ok(set)
}

fn vectors_crc(set: &EmbeddingSet) -> u32 {
    let mut crc = Crc32::new();
    for i in 0..set.len() {
        crc_f64(
            &mut crc,
            set.vector(&node_id(i)).expect("every node has a row"),
        );
    }
    crc.finish()
}

/// Re-publishes `set` [`RELOADS`] times, evenly spaced over `secs`, each
/// one as a new generation the daemon hot-reloads. Returns the number of
/// publications that failed.
fn republish(daemon: &Daemon, set: &EmbeddingSet, secs: f64) -> u64 {
    let start = Instant::now();
    let mut failed = 0;
    let mut last = None;
    for j in 1..=RELOADS {
        let at = start + Duration::from_secs_f64(secs * j as f64 / (RELOADS + 1) as f64);
        if let Some(wait) = at.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        match publish(&daemon.store, JOB, set) {
            Ok(g) => last = Some(g),
            Err(_) => failed += 1,
        }
    }
    if let Some(g) = last {
        if wait_ready(daemon.addr, g).is_err() {
            failed += 1;
        }
    }
    failed
}

fn open_plan(seed: u64, rows: usize, secs: f64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0be7);
    let n = (OPEN_RATE_QPS * secs).round().max(1.0) as usize;
    (0..n).map(|_| Query::draw(&mut rng, rows)).collect()
}

/// Runs the workload (both the end-to-end and the traced run).
pub fn run(args: &Args) -> Outcome {
    match run_inner(args) {
        Ok(o) => o,
        Err(e) => {
            let mut o = Outcome {
                attempted: 1,
                failed: 1,
                ..Outcome::default()
            };
            o.checks.push((format!("workload ran: {e}"), false));
            o
        }
    }
}

fn run_inner(args: &Args) -> Result<Outcome, GuardError> {
    // Telemetry on, as the daemon is deployed.
    x2v_obs::set_enabled(true);
    let scratch = ScratchDir::new("node2vec_serve")
        .map_err(|e| GuardError::storage("pipebench/scratch", e.to_string()))?;
    let mut outcome = Outcome::default();
    let mut layers = Layers::default();

    // Set-up: the inputs and the daemon start, SETUP_REPS times.
    let mut setups = Vec::new();
    let mut built: Option<(Graph, Daemon)> = None;
    for i in 0..SETUP_REPS {
        let mut t = PassTrace::new();
        let t0 = Instant::now();
        let g = inputs::build(args.seed, &mut t).graph;
        let daemon = t.call("serve.start", || {
            Daemon::start(&scratch.0.join(format!("store-{i}")))
        })?;
        setups.push(t0.elapsed().as_secs_f64());
        layers.absorb_times(&t);
        if let Some((_, old)) = built.replace((g, daemon)) {
            old.server.shutdown();
        }
    }
    let (g, daemon) = built.expect("at least one set-up");

    // Train passes, each published as a new generation. In the traced
    // run the second is traced and the others are its baseline.
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut sets = Vec::new();
    for rep in 0..TRAIN_REPS {
        outcome.attempted += 1;
        let traced = args.trace && rep % 2 == 1;
        let mut t = if traced {
            PassTrace::new()
        } else {
            PassTrace::off()
        };
        let t0 = Instant::now();
        let result = train(
            &g,
            args.seed,
            &daemon,
            &mut t,
            traced.then_some(&mut layers),
        );
        let secs = t0.elapsed().as_secs_f64();
        sets.push(result?);
        if traced {
            layers.absorb_times(&t);
            layers.value("trace.uncovered_frac", 1.0 - t.covered_ms() / (secs * 1e3));
            traced_s.push(secs);
        } else {
            plain_s.push(secs);
        }
    }
    let crc = vectors_crc(&sets[0]);
    outcome.checks.push((
        "trained-vector checksum repeats across train passes".to_string(),
        sets.iter().all(|s| vectors_crc(s) == crc),
    ));
    let set = sets.swap_remove(0);
    let train_s = median(&mut plain_s.clone());
    if args.trace {
        let traced = median(&mut traced_s);
        layers.value("trace.overhead_frac", (traced - train_s) / train_s);
    }

    // Open loop, with hot reloads of the same set beside the reads.
    let open_secs = OPEN_SHARE * args.seconds;
    let plan = open_plan(args.seed, set.len(), open_secs);
    let (open, reload_failed) = std::thread::scope(|s| {
        let reloader = s.spawn(|| republish(&daemon, &set, open_secs));
        let open = open_loop(daemon.addr, plan, OPEN_RATE_QPS, threads());
        (open, reloader.join().expect("reload thread"))
    });
    outcome.attempted += RELOADS as u64;
    outcome.failed += reload_failed;

    // Closed loop for capacity.
    let (closed, closed_wall) = closed_loop(
        daemon.addr,
        args.seed ^ 0xc105,
        set.len(),
        threads(),
        CLOSED_SHARE * args.seconds,
    );

    let reloads = counter(x2v_obs::keys::SERVE_RELOADS);
    daemon.server.shutdown();

    // Output checks, untimed.
    let mut verdict = verify(&set, &open, threads());
    verdict.merge(verify(&set, &closed, threads()));
    outcome.attempted += verdict.attempted;
    outcome.failed += verdict.failed;
    let recall = verdict.recall();
    outcome.checks.push((
        "every 2xx response is well formed and /embed vectors are exact".to_string(),
        outcome.failed == 0,
    ));

    let mut open_ms: Vec<f64> = open.iter().map(|s| s.latency_ms).collect();
    let p50 = median(&mut open_ms);
    let (tail_pct, tail_ms) = tail(&mut open_ms);
    let ok_closed = closed
        .iter()
        .filter(|s| matches!(s.status, Some(200..=299)))
        .count();
    let qps = ok_closed as f64 / closed_wall;

    outcome.notes.push(format!(
        "train_s: {train_s:.3} s, median of {} passes ({NODES} nodes, {WALKS_PER_NODE} walks x {WALK_LENGTH} steps, dim {DIM}, {EPOCHS} epoch)",
        plain_s.len()
    ));
    outcome.notes.push(format!(
        "query_p50_ms: {p50:.3} ms, query_p{tail_pct:.0}_ms: {tail_ms:.3} ms, p99.9 {:.3} ms (open loop at {OPEN_RATE_QPS} q/s, {} samples, timed from due time)",
        quantile(&mut open_ms, 0.999),
        open_ms.len()
    ));
    outcome.notes.push(format!(
        "queries_per_s: {qps:.1} (closed loop, {} clients, {} samples)",
        threads(),
        closed.len()
    ));
    outcome.notes.push(format!(
        "topk_recall: {recall} ({} of {} hits)",
        verdict.hits_matched, verdict.hits_expected
    ));
    outcome.notes.push(format!(
        "failed_frac: {} / {} operations",
        outcome.failed, outcome.attempted
    ));
    outcome.notes.push(format!("serve.reloads: {reloads}"));
    outcome
        .notes
        .push(format!("work checksum (trained vectors): {crc:08x}"));

    if args.trace {
        trace_probes(
            args,
            &g,
            &set,
            &scratch,
            &open,
            &closed,
            crc,
            &mut layers,
            &mut outcome,
        )?;
        layers.count("serve.reloads", reloads as f64);
        outcome.layers = Some(layers);
    } else {
        outcome.metrics = [
            ("setup_s", median(&mut setups)),
            ("train_s", train_s),
            ("latency_p50_ms", p50),
            ("throughput_per_s", qps),
            ("quality", recall),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect::<BTreeMap<_, _>>();
    }
    Ok(outcome)
}

/// The store's own count of bytes it wrote (an `x2v-obs` counter).
const CKPT_BYTES_WRITTEN: &str = "ckpt/bytes_written";

/// A lifetime `x2v-obs` counter of this process.
fn counter(key: &str) -> u64 {
    let (_, counters, _) = x2v_obs::global().snapshot();
    counters
        .iter()
        .find(|(k, _)| k == key)
        .map_or(0, |&(_, v)| v)
}

/// The traced run's per-endpoint latencies and off-path probes.
#[allow(clippy::too_many_arguments)]
fn trace_probes(
    args: &Args,
    g: &Graph,
    set: &EmbeddingSet,
    scratch: &ScratchDir,
    open: &[Sample],
    closed: &[Sample],
    crc: u32,
    layers: &mut Layers,
    outcome: &mut Outcome,
) -> Result<(), GuardError> {
    let endpoint_p50 = |similar: bool| {
        let mut v: Vec<f64> = closed
            .iter()
            .filter(|s| s.query.similar == similar)
            .map(|s| s.latency_ms)
            .collect();
        median(&mut v)
    };
    layers.value("serve.similar_p50_ms", endpoint_p50(true));
    layers.value("serve.embed_p50_ms", endpoint_p50(false));
    let mut open_ms: Vec<f64> = open.iter().map(|s| s.latency_ms).collect();
    layers.value("serve.query_p99_ms", quantile(&mut open_ms, 0.99));
    let mut late: Vec<f64> = open.iter().map(|s| s.late_ms).collect();
    layers.value("loadgen.late_p99_ms", quantile(&mut late, 0.99));

    // Probe: the reload's work, load_latest + decode, on a fresh store.
    let store = Store::open(scratch.0.join("probe"))?;
    publish(&store, JOB, set)?;
    let mut decoded_equal = true;
    for _ in 0..3 {
        let mut t = PassTrace::new();
        let loaded = t.call("ckpt.load", || -> Result<EmbeddingSet, GuardError> {
            let (_, payload) = store
                .load_latest(JOB, x2v_serve::index::ARTIFACT_KIND)?
                .ok_or_else(|| GuardError::storage("pipebench/probe", "nothing published"))?;
            EmbeddingSet::decode(&payload)
        })?;
        layers.absorb_times(&t);
        decoded_equal &= &loaded == set;
    }
    outcome.checks.push((
        "a reload decodes the served set exactly".to_string(),
        decoded_equal,
    ));

    // Probe: the scan itself, for the ids the load asked about.
    let ids: Vec<String> = open
        .iter()
        .chain(closed)
        .filter(|s| s.query.similar)
        .take(200)
        .map(|s| node_id(s.query.row))
        .collect();
    let mut us = Vec::with_capacity(ids.len());
    for id in &ids {
        let t0 = Instant::now();
        let hits = set.top_k(id, K, &Budget::unlimited())?;
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(hits);
    }
    layers.value("serve.topk_us", median(&mut us));
    if let Some(id) = ids.first() {
        layers.count("serve.rows_scanned", rows_scanned(set, id) as f64);
    }

    // Probe: SGNS allocations, counted with the daemon gone so nothing
    // else allocates, and a retrain that must reproduce the served set.
    let corpus = generate_walks(g, &walk_config(args.seed));
    x2v_prof::set_alloc_counting(true);
    let mut t = PassTrace::new();
    let model = t.call("embed.sgns", || {
        Word2Vec::train(&corpus, g.order(), &sgns_config(args.seed))
    });
    x2v_prof::set_alloc_counting(false);
    let mut retrained = Crc32::new();
    for i in 0..g.order() {
        crc_f64(&mut retrained, model.vector(i));
    }
    outcome.checks.push((
        "retrained vectors reproduce the served set".to_string(),
        retrained.finish() == crc,
    ));
    layers.absorb_allocs(&t);
    Ok(())
}

/// Rows one `/similar` scan touches, measured through the scan's budget
/// meter (one work unit per row): the smallest work limit it completes in.
fn rows_scanned(set: &EmbeddingSet, id: &str) -> u64 {
    let (mut lo, mut hi) = (0u64, set.len() as u64 + 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if set
            .top_k(id, K, &Budget::unlimited().with_work_limit(mid))
            .is_ok()
        {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small daemon over `rows` random vectors.
    fn small_daemon(rows: usize, dir: &Path) -> (Daemon, EmbeddingSet) {
        let mut rng = StdRng::seed_from_u64(3);
        let set = EmbeddingSet::new(
            (0..rows)
                .map(|i| {
                    (
                        node_id(i),
                        (0..4).map(|_| rng.random::<f64>() - 0.5).collect(),
                    )
                })
                .collect(),
        )
        .unwrap();
        let daemon = Daemon::start(dir).unwrap();
        let generation = publish(&daemon.store, JOB, &set).unwrap();
        wait_ready(daemon.addr, generation).unwrap();
        (daemon, set)
    }

    #[test]
    fn forced_failures_raise_failed_frac_by_exactly_their_share() {
        x2v_obs::set_enabled(true);
        let dir = ScratchDir::new("test-failures").unwrap();
        let (daemon, set) = small_daemon(64, &dir.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut plan: Vec<Query> = (0..40).map(|_| Query::draw(&mut rng, set.len())).collect();
        let clean = verify(&set, &open_loop(daemon.addr, plan.clone(), 400.0, 2), 2);
        assert_eq!(clean.attempted, 40);
        assert_eq!(clean.failed, 0, "{clean:?}");
        assert_eq!(clean.recall(), 1.0);

        // deadline_ms=0 is a deterministic 504 on /similar: force 5 of 40.
        let mut forced = 0;
        for q in plan.iter_mut().filter(|q| q.similar).take(5) {
            q.path.push_str("&deadline_ms=0");
            forced += 1;
        }
        assert_eq!(forced, 5);
        let faulty = verify(&set, &open_loop(daemon.addr, plan, 400.0, 2), 2);
        daemon.server.shutdown();
        assert_eq!(faulty.attempted, 40);
        assert_eq!(faulty.failed, 5);
        let failed_frac = |v: &Verdict| v.failed as f64 / v.attempted as f64;
        assert_eq!(failed_frac(&faulty) - failed_frac(&clean), 5.0 / 40.0);
    }

    #[test]
    fn corrupted_bodies_are_caught() {
        let set = EmbeddingSet::new(vec![
            ("n0".into(), vec![1.0, 0.0]),
            ("n1".into(), vec![0.9, 0.1]),
            ("n2".into(), vec![0.0, 1.0]),
        ])
        .unwrap();
        let sample = |similar: bool, status: Option<u16>, body: &str| Sample {
            query: Query {
                row: 0,
                similar,
                path: String::new(),
            },
            latency_ms: 0.0,
            late_ms: 0.0,
            status,
            body: body.to_string(),
        };
        let good = set.top_k("n0", K, &Budget::unlimited()).unwrap();
        let good_body = format!(
            "{{\"hits\": [{}]}}",
            good.iter()
                .map(|h| format!("{{\"id\": \"{}\", \"score\": {}}}", h.id, h.score))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let samples = vec![
            sample(true, Some(200), &good_body),
            sample(
                true,
                Some(200),
                "{\"hits\": [{\"id\": \"n2\", \"score\": 0.5}]}",
            ),
            sample(false, Some(200), "{\"vector\": [1, 0]}"),
            sample(false, Some(200), "{\"vector\": [1, 0.5]}"),
            sample(true, Some(504), ""),
            sample(false, None, ""),
        ];
        let v = verify(&set, &samples, 2);
        assert_eq!(v.attempted, 6);
        // Wrong vector, 504 and transport error; a wrong hit lowers recall.
        assert_eq!(v.failed, 3);
        assert_eq!(v.hits_expected, 4);
        assert_eq!(v.hits_matched, 2);
    }

    #[test]
    fn rows_scanned_counts_the_whole_set() {
        let set = EmbeddingSet::new((0..50).map(|i| (node_id(i), vec![i as f64, 1.0])).collect())
            .unwrap();
        assert_eq!(rows_scanned(&set, "n7"), 50);
    }
}
