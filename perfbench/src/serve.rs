//! `serve_mix`: `/v1` and `/v2` traffic against an in-process
//! `ServerBuilder` server, over raw HTTP/1.1 on pipelined keep-alive
//! connections.
//!
//! Open-loop phases: one generator thread sends every request at its due
//! time on two connections; one reader thread per connection collects the
//! in-order responses. Latency is timed from each request's due time, so a
//! stall also charges the requests queued behind it. A run has a warm-up,
//! alternating windows at the fixed `lo` and `hi` rates with the
//! closed-loop measurements between them (in child processes, see
//! [`closed_loop`]), and a
//! binary search over a fixed rate ladder for `max_rps`.

use crate::layers::Window;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::RunArgs;
use photonn_datasets::{Dataset, Family};
use photonn_donn::deploy::FabricationModel;
use photonn_donn::{Donn, DonnConfig};
use photonn_math::{Grid, Rng};
use photonn_serve::http::{parse_available, ParseOutcome, MAX_BODY_BYTES};
use photonn_serve::{
    BatchPolicy, ModelRegistry, ReadoutHead, ServeConfig, ServerBuilder, ServerHandle,
};
use photonn_wire::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Grid of the served models.
const GRID: usize = 32;
/// Distinct images requests draw from — several times what the
/// first-hop cache holds, so hits stay partial. The size is an assumed
/// value, not taken from measured traffic.
const POOL: usize = 1024;
/// First-hop cache budget: about 170 of the pool's first hops.
const CACHE_BUDGET: usize = 4 << 20;
/// Share of requests that are `/v2` batches (the rest are `/v1`): an
/// assumed value, not taken from measured traffic.
const V2_SHARE: f64 = 0.25;
/// Images per `/v2` request.
const V2_BATCH: usize = 8;
/// Pipelined keep-alive connections.
const CONNECTIONS: usize = 2;
/// Served variants: the trained masks, and the same masks through the
/// crosstalk fabrication model.
const VARIANTS: [&str; 2] = ["ideal", "deployed"];
/// Interpixel crosstalk of the deployed variant.
const CROSSTALK: f64 = 0.1;
/// The two fixed rates (requests/s) latency is reported at.
const RATE_LO: f64 = 400.0;
const RATE_HI: f64 = 1600.0;
const _: () = assert!(RATE_LO < RATE_HI);
/// Latency limit (ms) on the tail a `max_rps` rung must meet.
const LIMIT_MS: f64 = 50.0;
/// The `max_rps` ladder: 400 req/s × 2^(k/12), k = 0..60 (400 … 12 800),
/// rungs 6% apart.
const LADDER_STEPS: usize = 61;
/// Probes a rung gets before it counts as failed: two, so one host stall
/// does not end the climb and the overloaded rungs' slow probes stay few.
const ATTEMPTS: usize = 2;
/// Set-ups per run; `setup_s` is their median. The first one builds what
/// the run uses; the others are timed between the `lo`/`hi` rounds, spread
/// over the run so that a host disturbance of a few seconds moves a
/// minority of them.
const SETUPS: usize = 5;
/// Requests per `hi` window: the fewest that support a p99.
const WINDOW: usize = 1000;
/// Requests per `lo` window.
const LO_WINDOW: usize = 400;
/// Answered requests a phase keeps for timing the serving layers' calls.
const SAMPLE: usize = 256;
/// Requests kept outstanding in the saturation loop: every shard's full
/// batch, twice over.
const IN_FLIGHT: usize = 64;
/// Distinct request contents the closed loops cycle through.
const CLOSED_DRAWS: u64 = 4096;
/// Processes the closed-loop measurements run in (see [`closed_loop`]).
const CLOSED_PROCESSES: usize = 5;
/// Measured saturation segments per process, after one warm-up segment.
const SATURATION_SEGMENTS: usize = 3;
/// The command-line flag that makes the binary a closed-loop process.
pub const CLOSED_LOOP_CHILD_FLAG: &str = "--closed-loop-child";

fn ladder(k: usize) -> f64 {
    400.0 * 2f64.powf(k as f64 / 12.0)
}

/// One scheduled request.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    /// Due time after the phase start.
    pub due: Duration,
    /// Connection index.
    pub conn: usize,
    /// `None` for `/v1`, `Some(head)` for `/v2`.
    pub head: Option<ReadoutHead>,
    /// Variant index into [`VARIANTS`].
    pub variant: usize,
    /// Pool image indices (one for `/v1`).
    pub images: Vec<usize>,
}

/// The arrival schedule of one phase: evenly spaced due times at `rate`
/// for `length`, request content drawn from `seed` — skewed image reuse
/// (`⌊POOL·u³⌋`, so a fifth of the pool takes over half the draws; the
/// skew, like [`V2_SHARE`], is assumed, not taken from measured traffic).
pub fn schedule(seed: u64, rate: f64, length: Duration) -> Vec<Req> {
    let mut rng = Rng::seed_from(seed);
    let count = (rate * length.as_secs_f64()).round().max(1.0) as usize;
    let draw = |rng: &mut Rng| ((POOL as f64) * rng.uniform().powi(3)) as usize % POOL;
    (0..count)
        .map(|i| {
            let batch = rng.uniform() < V2_SHARE;
            let head = batch.then(|| {
                if rng.uniform() < 0.5 {
                    ReadoutHead::Differential
                } else {
                    ReadoutHead::Sum
                }
            });
            let variant = rng.below(VARIANTS.len());
            let n = if batch { V2_BATCH } else { 1 };
            let images = (0..n).map(|_| draw(&mut rng)).collect();
            Req {
                due: Duration::from_secs_f64(i as f64 / rate),
                conn: i % CONNECTIONS,
                head,
                variant,
                images,
            }
        })
        .collect()
}

/// Pool images: synthetic digits at the served grid, pixels rounded to
/// two decimals, kept both as the text a client sends and as the values
/// the server parses from it.
struct Pool {
    text: Vec<String>,
    images: Vec<Grid>,
    /// Pool slot → image index, a seeded permutation so the hot set is
    /// not the dataset's first images.
    order: Vec<usize>,
}

impl Pool {
    fn new(seed: u64) -> Pool {
        let data = Dataset::synthetic(Family::Mnist, POOL, seed ^ 0x5e7e).resized(GRID);
        let mut text = Vec::with_capacity(POOL);
        let mut images = Vec::with_capacity(POOL);
        for i in 0..POOL {
            let values: Vec<String> = data
                .image(i)
                .as_slice()
                .iter()
                .map(|v| format!("{:.2}", v.clamp(0.0, 1.0)))
                .collect();
            let flat = format!("[{}]", values.join(","));
            let parsed = Json::parse(&flat).expect("pool image text parses");
            let pixels: Vec<f64> = parsed
                .as_array()
                .expect("array")
                .iter()
                .map(|v| v.as_f64().expect("number"))
                .collect();
            images.push(Grid::from_vec(GRID, GRID, pixels));
            text.push(flat);
        }
        let mut order: Vec<usize> = (0..POOL).collect();
        Rng::seed_from(seed ^ 0x0dde).shuffle(&mut order);
        Pool {
            text,
            images,
            order,
        }
    }

    fn image(&self, slot: usize) -> &Grid {
        &self.images[self.order[slot]]
    }

    fn text(&self, slot: usize) -> &str {
        &self.text[self.order[slot]]
    }

    /// The raw HTTP request bytes of `req`.
    fn request(&self, req: &Req) -> Vec<u8> {
        let model = VARIANTS[req.variant];
        let (path, body) = match req.head {
            None => (
                "/v1/logits",
                format!(
                    "{{\"model\":\"{model}\",\"image\":{}}}",
                    self.text(req.images[0])
                ),
            ),
            Some(head) => {
                let inputs: Vec<&str> = req.images.iter().map(|&s| self.text(s)).collect();
                (
                    "/v2/logits",
                    format!(
                        "{{\"model\":\"{model}\",\"head\":\"{}\",\"inputs\":[{}]}}",
                        head.name(),
                        inputs.join(",")
                    ),
                )
            }
        };
        let mut out = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        out.extend_from_slice(body.as_bytes());
        out
    }
}

/// The served models: random paper-scaled masks (a function of the
/// seed) as the ideal variant, and the same masks deployed through the
/// crosstalk model.
fn registry(seed: u64) -> ModelRegistry {
    let donn = Donn::random(DonnConfig::scaled(GRID), &mut Rng::seed_from(seed));
    let mut registry = ModelRegistry::new();
    registry.register(VARIANTS[0], donn.clone());
    registry.register_deployed(VARIANTS[1], &donn, FabricationModel::new(CROSSTALK));
    registry
}

/// The server as `ServeConfig::default()` builds it, except for the
/// knobs that default from the host's core count (`shards`, the policy's
/// `threads`) and the cache budget, which are pinned, and admission
/// degradation, pinned off: with it on, one overload probe of the
/// `max_rps` ladder leaves the pool degraded for the phases after it.
fn serve_config() -> ServeConfig {
    ServeConfig {
        policy: BatchPolicy {
            threads: 1,
            ..BatchPolicy::default()
        },
        cache_budget_bytes: CACHE_BUDGET,
        shards: 2,
        target_p99_us: 0,
        ..ServeConfig::default()
    }
}

/// One response as received.
struct Response {
    at: Instant,
    status: u16,
    body: Vec<u8>,
}

/// Reads one HTTP/1.1 response: `(status, body)`, `None` at end of
/// stream, on a timeout or on a malformed response.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<(u16, Vec<u8>)> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status = line.split_whitespace().nth(1)?.parse().ok()?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value.trim().parse().ok()?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).ok()?;
    Some((status, body))
}

/// Reads `count` in-order responses from `stream`.
fn read_responses(stream: TcpStream, count: usize) -> Vec<Response> {
    let mut reader = BufReader::new(stream);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        match read_response(&mut reader) {
            Some((status, body)) => out.push(Response {
                at: Instant::now(),
                status,
                body,
            }),
            None => break,
        }
    }
    out
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to the in-process server");
    s.set_nodelay(true).expect("nodelay");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    s
}

/// What one phase measured.
struct Phase {
    /// Latency from due time, ms, per request (`NaN` when it failed).
    latency: Vec<f64>,
    /// Generator lateness at send, ms.
    late: Vec<f64>,
    /// Requests in flight when each request was sent (max).
    inflight_max: usize,
    failed: usize,
    /// Answered requests whose logits differ from the direct call.
    mismatches: usize,
    /// Answered requests checked.
    checked: usize,
    /// The first answered `(request, response)` pairs, kept for timing
    /// the serving layers' calls on real traffic.
    sample: Vec<(Req, Response)>,
}

impl Phase {
    fn ok_latencies(&self) -> Vec<f64> {
        self.latency
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .collect()
    }

    /// Meets the limit: no failure, tail within it, and no growing
    /// backlog — the last quarter's median latency stays within twice the
    /// first quarter's plus a millisecond (an overload builds a queue that
    /// only grows; a host stall drains).
    fn meets_limit(&self) -> bool {
        let n = self.latency.len();
        let first = median(&self.latency[..n / 4]);
        let last = median(&self.latency[n * 3 / 4..]);
        self.failed == 0 && tail(&self.ok_latencies()).0 <= LIMIT_MS && last <= 2.0 * first + 1.0
    }
}

/// Runs one open-loop phase against `addr`.
fn run_phase(addr: SocketAddr, pool: &Pool, oracle: &mut Oracle, reqs: Vec<Req>) -> Phase {
    let mut streams: Vec<TcpStream> = (0..CONNECTIONS).map(|_| connect(addr)).collect();
    let per_conn: Vec<usize> = (0..CONNECTIONS)
        .map(|c| reqs.iter().filter(|r| r.conn == c).count())
        .collect();
    let start = Instant::now();
    let mut sent_at = vec![start; reqs.len()];
    let mut late = Vec::with_capacity(reqs.len());
    let mut send_failed = vec![false; reqs.len()];
    let received: Vec<Vec<Response>> = std::thread::scope(|scope| {
        let readers: Vec<_> = streams
            .iter()
            .zip(&per_conn)
            .map(|(s, &count)| {
                let s = s.try_clone().expect("clone stream");
                scope.spawn(move || read_responses(s, count))
            })
            .collect();
        for (i, req) in reqs.iter().enumerate() {
            let due = start + req.due;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let at = Instant::now();
            sent_at[i] = at;
            late.push(at.saturating_duration_since(due).as_secs_f64() * 1e3);
            send_failed[i] = streams[req.conn].write_all(&pool.request(req)).is_err();
        }
        readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect()
    });
    // Pair responses with requests, per connection, in order. The
    // verification is the benchmark's own work: keep it out of a traced
    // pass's allocation count.
    let counting = crate::alloc::enabled();
    crate::alloc::enable(false);
    let mut iters: Vec<_> = received.into_iter().map(Vec::into_iter).collect();
    let mut phase = Phase {
        latency: Vec::with_capacity(reqs.len()),
        late,
        inflight_max: 0,
        failed: 0,
        mismatches: 0,
        checked: 0,
        sample: Vec::new(),
    };
    let mut done_at = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.into_iter().enumerate() {
        match iters[req.conn].next() {
            Some(resp) if !send_failed[i] && resp.status == 200 => {
                let due = start + req.due;
                phase
                    .latency
                    .push(resp.at.saturating_duration_since(due).as_secs_f64() * 1e3);
                done_at.push(Some(resp.at));
                phase.checked += 1;
                phase.mismatches += usize::from(!oracle.matches(pool, &req, &resp.body));
                if phase.sample.len() < SAMPLE {
                    phase.sample.push((req, resp));
                }
            }
            _ => {
                phase.failed += 1;
                phase.latency.push(f64::NAN);
                done_at.push(None);
            }
        }
    }
    crate::alloc::enable(counting);
    let mut finished: Vec<Instant> = done_at.iter().flatten().copied().collect();
    finished.sort_unstable();
    for (i, at) in sent_at.iter().enumerate() {
        let completed = finished.partition_point(|t| t <= at);
        phase.inflight_max = phase.inflight_max.max((i + 1).saturating_sub(completed));
    }
    phase
}

/// One closed-loop exchange: request, send time, answer (`None` when the
/// connection failed), answer time.
type Exchange = (Req, Instant, Option<(u16, Vec<u8>)>, Instant);

/// A closed loop on one connection, driven from the calling thread (one
/// client thread, so the client takes as little of the host's CPU from
/// the server as it can): keeps `in_flight` requests outstanding and
/// sends the next the moment an answer arrives, for `length`. Returns the
/// phase (latency from send) and the completed requests per second.
fn run_closed(
    addr: SocketAddr,
    pool: &Pool,
    oracle: &mut Oracle,
    seed: u64,
    in_flight: usize,
    length: Duration,
) -> (Phase, f64) {
    // Request content from the arrival schedule's generator; the due
    // times are not used in a closed loop.
    let content = schedule(seed, 1.0, Duration::from_secs(CLOSED_DRAWS));
    let start = Instant::now();
    let deadline = start + length;
    let mut stream = connect(addr);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut next = content.iter().cycle();
    let mut outstanding = std::collections::VecDeque::new();
    let mut exchanges: Vec<Exchange> = Vec::new();
    let send = |stream: &mut TcpStream, req: &Req| {
        let at = Instant::now();
        let ok = stream.write_all(&pool.request(req)).is_ok();
        (req.clone(), at, ok)
    };
    for _ in 0..in_flight {
        let req = next.next().expect("cycled content");
        outstanding.push_back(send(&mut stream, req));
    }
    while let Some((req, sent, ok)) = outstanding.pop_front() {
        let answer = if ok { read_response(&mut reader) } else { None };
        let at = Instant::now();
        let alive = answer.is_some();
        exchanges.push((req, sent, answer, at));
        if alive && at < deadline {
            let req = next.next().expect("cycled content");
            outstanding.push_back(send(&mut stream, req));
        }
    }
    let mut phase = Phase {
        latency: Vec::new(),
        late: Vec::new(),
        inflight_max: in_flight,
        failed: 0,
        mismatches: 0,
        checked: 0,
        sample: Vec::new(),
    };
    let mut completed = 0usize;
    for (req, sent, answer, at) in exchanges {
        match answer {
            Some((200, body)) => {
                completed += usize::from(at <= deadline);
                phase.latency.push((at - sent).as_secs_f64() * 1e3);
                phase.checked += 1;
                phase.mismatches += usize::from(!oracle.matches(pool, &req, &body));
            }
            _ => {
                phase.failed += 1;
                phase.latency.push(f64::NAN);
            }
        }
    }
    (phase, completed as f64 / length.as_secs_f64())
}

/// One set-up: the image pool and a bound server, with the seconds the
/// pool took and the seconds both took.
fn set_up(seed: u64) -> (Pool, ServerHandle, f64, f64) {
    let t = Instant::now();
    let pool = Pool::new(seed);
    let pool_s = t.elapsed().as_secs_f64();
    let server = bind(seed);
    (pool, server, pool_s, t.elapsed().as_secs_f64())
}

fn bind(seed: u64) -> ServerHandle {
    ServerBuilder::new(registry(seed))
        .config(serve_config())
        .bind("127.0.0.1:0")
        .expect("bind the in-process server")
}

/// The closed-loop measurements, run in [`CLOSED_PROCESSES`] child
/// processes, each with its own server, spread over the run between the
/// open-loop windows so that a host disturbance of a few seconds moves a
/// minority of them:
///
/// * `ops_per_s` — saturation throughput, [`IN_FLIGHT`] requests
///   outstanding. It varies between the segments of one process and
///   between processes by up to a third (four busy threads — client,
///   event loop, two shards — scheduled on the host's cores), so the
///   figure is the median over processes of each process's median over
///   its segments; every segment's rate is logged.
/// * `op_p50_ms` — unloaded latency: the median latency with one request
///   outstanding, which the coalescing wait, the dispatch and the forward
///   pass set, not the queue depth. Median over processes.
///
/// Runs process `child`, logs and checks what it reports, and returns
/// `(saturation req/s, unloaded p50 ms)`.
fn closed_loop(
    args: &RunArgs,
    report: &mut Report,
    plan: &Plan,
    child: usize,
) -> Option<(f64, f64)> {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let out = std::process::Command::new(&exe)
        .arg(CLOSED_LOOP_CHILD_FLAG)
        .arg(args.seed.to_string())
        .arg((args.seed ^ child as u64).to_string())
        .arg(plan.saturation_warm.as_millis().to_string())
        .arg(plan.saturation.as_millis().to_string())
        .arg(plan.unloaded.as_millis().to_string())
        .output()
        .expect("run a closed-loop process");
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<f64> = text
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("closed "))
        .map(|l| l.split(' ').filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default();
    let [rate, p50, attempted, failed, checked, mismatches, ref segments @ ..] = fields[..] else {
        report.check(
            "closed-loop process reports",
            false,
            format!("{}: {text}", out.status),
        );
        return None;
    };
    let segments: Vec<String> = segments.iter().map(|r| format!("{r:.0}")).collect();
    report.note(format!(
        "closed-loop process {child}: saturation {rate:.0} req/s (segments {}), \
         unloaded p50 {p50:.3} ms, sent {attempted}, failed {failed}",
        segments.join(" ")
    ));
    report.attempted += attempted as u64;
    report.failed += failed as u64;
    report.check(
        &format!("closed-loop process {child}: served logits equal direct calls"),
        out.status.success() && mismatches == 0.0 && checked > 0.0,
        format!("{mismatches} mismatches in {checked} answered requests"),
    );
    Some((rate, p50))
}

/// One closed-loop process: builds the workload's server, drops a
/// longer warm-up saturation segment, measures [`SATURATION_SEGMENTS`] saturation
/// segments and one unloaded segment, and prints `closed <req/s> <p50 ms>
/// <attempted> <failed> <checked> <mismatches> <segment req/s>...` (the
/// median segment rate, the unloaded median latency). Exits 1 when a
/// served answer is wrong.
pub fn closed_loop_child(args: &[String]) -> ! {
    let parse = |i: usize| -> u64 {
        args.get(i).and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            panic!(
                "{CLOSED_LOOP_CHILD_FLAG} <seed> <draw seed> <warm-up ms> <segment ms> \
                 <unloaded ms>"
            )
        })
    };
    let (seed, draws) = (parse(0), parse(1));
    let [warm, segment, unloaded] = [2, 3, 4].map(|i| Duration::from_millis(parse(i)));
    let pool = Pool::new(seed);
    let mut server = bind(seed);
    let mut oracle = Oracle {
        registry: registry(seed),
        memo: HashMap::new(),
    };
    let mut phases = Vec::new();
    let mut rates = Vec::new();
    for i in 0..=SATURATION_SEGMENTS {
        // The first segment warms up the server and the host, whose
        // throughput climbs for a second or two after the lighter load
        // before a process starts.
        let length = if i == 0 { warm } else { segment };
        let (phase, rate) = run_closed(
            server.addr(),
            &pool,
            &mut oracle,
            draws + i as u64,
            IN_FLIGHT,
            length,
        );
        phases.push(phase);
        if i > 0 {
            rates.push(rate);
        }
    }
    let (single, _) = run_closed(
        server.addr(),
        &pool,
        &mut oracle,
        draws.wrapping_add(0x51_4e61e),
        1,
        unloaded,
    );
    let p50 = median(&single.ok_latencies());
    phases.push(single);
    server.shutdown();
    let sum = |f: fn(&Phase) -> usize| phases.iter().map(f).sum::<usize>();
    let bad = sum(|p| p.mismatches);
    let segments: Vec<String> = rates.iter().map(f64::to_string).collect();
    println!(
        "closed {} {p50} {} {} {} {bad} {}",
        median(&rates),
        sum(|p| p.latency.len()),
        sum(|p| p.failed),
        sum(|p| p.checked),
        segments.join(" ")
    );
    std::process::exit(i32::from(bad > 0));
}

/// Direct-call expectations, memoized per (image, variant, head).
struct Oracle {
    registry: ModelRegistry,
    memo: HashMap<(usize, usize, u8), Vec<f64>>,
}

impl Oracle {
    fn expected(
        &mut self,
        pool: &Pool,
        slot: usize,
        variant: usize,
        head: Option<ReadoutHead>,
    ) -> &[f64] {
        let registry = &self.registry;
        let head_key = match head {
            None => 0,
            Some(ReadoutHead::Sum) => 1,
            Some(ReadoutHead::Differential) => 2,
        };
        self.memo
            .entry((slot, variant, head_key))
            .or_insert_with(|| {
                let model = registry.get(VARIANTS[variant]).expect("registered variant");
                let image = [pool.image(slot)];
                match head {
                    None | Some(ReadoutHead::Sum) => model.logits_batch(&image, 1).remove(0),
                    Some(h) => {
                        let intensity = model.intensity_batch(&image, 1);
                        let sample = intensity.samples().next().expect("one sample");
                        h.readout(sample, intensity.cols(), model.regions())
                    }
                }
            })
    }

    /// Does a served body carry, for every input of `req`, the logits of
    /// the direct call, bit for bit?
    fn matches(&mut self, pool: &Pool, req: &Req, body: &[u8]) -> bool {
        match served_logits(body, req.head.is_some()) {
            Some(got) if got.len() == req.images.len() => {
                req.images.iter().zip(&got).all(|(&slot, logits)| {
                    let want = self.expected(pool, slot, req.variant, req.head);
                    want.len() == logits.len()
                        && want
                            .iter()
                            .zip(logits)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
            }
            _ => false,
        }
    }
}

/// Logits vectors from a `/v1` (`batch == false`) or `/v2` body.
fn served_logits(body: &[u8], batch: bool) -> Option<Vec<Vec<f64>>> {
    let doc = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let numbers =
        |v: &Json| -> Option<Vec<f64>> { v.as_array()?.iter().map(Json::as_f64).collect() };
    if batch {
        doc.get("results")?
            .as_array()?
            .iter()
            .map(|r| numbers(r.get("logits")?))
            .collect()
    } else {
        Some(vec![numbers(doc.get("logits")?)?])
    }
}

/// Phase lengths carved out of the run budget.
struct Plan {
    warm: Duration,
    /// Alternating `lo`/`hi` window pairs of the end-to-end run.
    rounds: usize,
    /// `lo` and `hi` phase lengths of the traced run.
    lo: Duration,
    hi: Duration,
    /// The warm-up saturation segment of a closed-loop process.
    saturation_warm: Duration,
    /// One measured closed-loop saturation segment.
    saturation: Duration,
    /// The unloaded closed-loop segment.
    unloaded: Duration,
    probe: Duration,
}

impl Plan {
    fn new(budget: Duration) -> Plan {
        let s = budget.as_secs_f64();
        let round = (LO_WINDOW as f64 / RATE_LO) + (WINDOW as f64 / RATE_HI);
        Plan {
            warm: Duration::from_secs_f64(0.05 * s),
            rounds: ((0.2 * s / round) as usize).max(CLOSED_PROCESSES),
            lo: Duration::from_secs_f64(0.25 * s),
            hi: Duration::from_secs_f64(0.2 * s),
            saturation_warm: Duration::from_secs_f64(0.25 * s / CLOSED_PROCESSES as f64),
            saturation: Duration::from_secs_f64(
                0.3 * s / (CLOSED_PROCESSES * SATURATION_SEGMENTS) as f64,
            ),
            unloaded: Duration::from_secs_f64(0.07 * s / CLOSED_PROCESSES as f64),
            probe: Duration::from_secs_f64(0.03 * s),
        }
    }
}

/// `(p50, tail)` of each phase's successful latencies, and the median of
/// each over the phases.
fn window_medians(windows: &[Phase]) -> (f64, f64) {
    let p50: Vec<f64> = windows.iter().map(|w| median(&w.ok_latencies())).collect();
    let tails: Vec<f64> = windows.iter().map(|w| tail(&w.ok_latencies()).0).collect();
    (median(&p50), median(&tails))
}

fn summarize(report: &mut Report, name: &str, rate: f64, phase: &Phase) {
    let ok = phase.ok_latencies();
    let (t, level) = tail(&ok);
    let late = if phase.late.is_empty() {
        "closed loop".to_string()
    } else {
        format!(
            "generator late tail {:.3} ms / max {:.3} ms",
            tail(&phase.late).0,
            phase.late.iter().copied().fold(0.0, f64::max)
        )
    };
    report.note(format!(
        "phase {name} @ {rate:.0} req/s: sent {}, succeeded {}, failed {}, p50 {:.3} ms, \
         tail(p{}) {:.3} ms, {late}",
        phase.latency.len(),
        ok.len(),
        phase.failed,
        median(&ok),
        level * 100.0,
        t,
    ));
}

/// Runs the workload.
pub fn run(args: &RunArgs, report: &mut Report) {
    let (pool, mut server, pool_s, total_s) = set_up(args.seed);
    let (mut pool_s, mut setup_s) = (vec![pool_s], vec![total_s]);
    let mut oracle = Oracle {
        registry: registry(args.seed),
        memo: HashMap::new(),
    };
    let plan = Plan::new(args.budget);
    let addr = server.addr();
    let mut phases: Vec<(String, Phase)> = Vec::new();
    let mut phase_seed = args.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next_seed = || {
        phase_seed = phase_seed.wrapping_add(1);
        phase_seed
    };

    let warm = run_phase(
        addr,
        &pool,
        &mut oracle,
        schedule(next_seed(), RATE_LO, plan.warm),
    );
    summarize(report, "warm-up", RATE_LO, &warm);
    phases.push(("warm-up".into(), warm));

    if args.traced {
        traced(
            report,
            &pool,
            &mut oracle,
            &mut server,
            &plan,
            &mut phases,
            &mut next_seed,
        );
    } else {
        // Alternate short lo and hi windows: a host disturbance lasting a
        // few seconds then moves a minority of windows, and each figure is
        // the median over windows of that window's percentile.
        let mut lo_windows = Vec::new();
        let mut hi_windows = Vec::new();
        let mut closed = Vec::new();
        for round in 0..plan.rounds {
            let lo = schedule(next_seed(), RATE_LO, secs(LO_WINDOW as f64 / RATE_LO));
            lo_windows.push(run_phase(addr, &pool, &mut oracle, lo));
            let hi = schedule(next_seed(), RATE_HI, secs(WINDOW as f64 / RATE_HI));
            hi_windows.push(run_phase(addr, &pool, &mut oracle, hi));
            if round < CLOSED_PROCESSES {
                closed.extend(closed_loop(args, report, &plan, round));
            }
            if setup_s.len() < SETUPS {
                // The set-up is dropped, and its server shut down, after
                // the timing.
                let (_, _, p, s) = set_up(args.seed);
                pool_s.push(p);
                setup_s.push(s);
            }
        }
        report.set("setup_s", median(&setup_s));
        report.note(format!(
            "set-ups (s): {setup_s:.4?}, of which the image pool {pool_s:.4?}"
        ));
        // Memory of the server under the fixed-rate phases, before the
        // ladder's overload probes.
        report.set("peak_rss_mb", crate::host::peak_rss_mb());
        let (lo_p50, lo_tail) = window_medians(&lo_windows);
        let (hi_p50, hi_tail) = window_medians(&hi_windows);
        report.note(format!(
            "lat_p50_ms.lo = {lo_p50} lat_p95_ms.lo = {lo_tail} lat_p50_ms.hi = {hi_p50} \
             lat_p99_ms.hi = {hi_tail} (ms from due time; medians over {} windows of \
             {LO_WINDOW} lo / {WINDOW} hi requests)",
            plan.rounds
        ));
        let (rates, p50s): (Vec<f64>, Vec<f64>) = closed.into_iter().unzip();
        report.set("op_p50_ms", median(&p50s));
        report.set("ops_per_s", median(&rates));
        report.note(format!(
            "op_p50_ms: one request outstanding; ops_per_s: {IN_FLIGHT} outstanding; one \
             connection each; per-process saturation req/s {rates:.0?}, unloaded p50 ms \
             {p50s:.3?}"
        ));
        for (name, rate, windows) in [("lo", RATE_LO, lo_windows), ("hi", RATE_HI, hi_windows)] {
            for (i, w) in windows.into_iter().enumerate() {
                summarize(report, &format!("{name} window {i}"), rate, &w);
                phases.push((name.into(), w));
            }
        }
        max_rps(
            report,
            addr,
            &pool,
            &mut oracle,
            &plan,
            &mut phases,
            &mut next_seed,
        );
    }
    server.shutdown();

    let (mut bad, mut checked) = (0, 0);
    for (name, phase) in &phases {
        bad += phase.mismatches;
        checked += phase.checked;
        // A failed ladder rung's errors are the ladder's finding, not
        // failures of the workload.
        if !name.starts_with("probe") {
            report.attempted += phase.latency.len() as u64;
            report.failed += phase.failed as u64;
        }
    }
    report.check(
        "served logits equal direct ServedModel calls bit for bit",
        bad == 0 && checked > 0,
        format!("{bad} mismatches in {checked} answered requests"),
    );
    let late: Vec<f64> = phases
        .iter()
        .flat_map(|(_, p)| p.late.iter().copied())
        .collect();
    report.note(format!(
        "generator lateness over all phases: tail {:.3} ms, max {:.3} ms",
        tail(&late).0,
        late.iter().copied().fold(0.0, f64::max)
    ));
}

fn secs(s: f64) -> Duration {
    Duration::from_secs_f64(s)
}

/// Binary search over the fixed ladder for the highest rate that meets
/// [`LIMIT_MS`]. A rung that fails is probed up to [`ATTEMPTS`] times
/// before the search moves below it, so a host stall does not end the
/// climb; a true overload fails every probe by a wide margin.
fn max_rps(
    report: &mut Report,
    addr: SocketAddr,
    pool: &Pool,
    oracle: &mut Oracle,
    plan: &Plan,
    phases: &mut Vec<(String, Phase)>,
    next_seed: &mut dyn FnMut() -> u64,
) {
    let (mut l, mut r) = (0usize, LADDER_STEPS - 1);
    let mut best = None;
    while l <= r {
        let k = (l + r) / 2;
        let mut pass = false;
        for attempt in 0..ATTEMPTS {
            let probe = run_phase(
                addr,
                pool,
                oracle,
                schedule(next_seed(), ladder(k), plan.probe),
            );
            pass = probe.meets_limit();
            let verdict = if pass { "pass" } else { "fail" };
            summarize(report, &format!("probe {verdict}"), ladder(k), &probe);
            phases.push((format!("probe {k}.{attempt}"), probe));
            if pass {
                break;
            }
        }
        if pass {
            best = Some(k);
            l = k + 1;
        } else if k == 0 {
            break;
        } else {
            r = k - 1;
        }
    }
    let rps = best.map_or(0.0, ladder);
    report.note(format!(
        "max_rps = {rps} (tail limit {LIMIT_MS} ms, ladder 400 x 2^(k/12) req/s, k <= 60)"
    ));
}

fn traced(
    report: &mut Report,
    pool: &Pool,
    oracle: &mut Oracle,
    server: &mut photonn_serve::ServerHandle,
    plan: &Plan,
    phases: &mut Vec<(String, Phase)>,
    next_seed: &mut dyn FnMut() -> u64,
) {
    let addr = server.addr();
    let lo_seed = next_seed();
    let plain = run_phase(addr, pool, oracle, schedule(lo_seed, RATE_LO, plan.lo));
    summarize(report, "lo (untraced)", RATE_LO, &plain);
    let plain_ok = plain.ok_latencies();
    report.set("serve.lo.p50_ms", median(&plain_ok));
    report.set("serve.lo.tail_ms", tail(&plain_ok).0);

    let before_metrics = server.metrics();
    Window::start();
    photonn_trace::set_enabled(true);
    let alloc_before = crate::alloc::snapshot();
    crate::alloc::enable(true);
    let lo = run_phase(addr, pool, oracle, schedule(lo_seed, RATE_LO, plan.lo));
    let hi = run_phase(addr, pool, oracle, schedule(next_seed(), RATE_HI, plan.hi));
    crate::alloc::enable(false);
    let alloc_after = crate::alloc::snapshot();
    let metrics = server.metrics();
    // Server threads flush their spans when they exit.
    server.shutdown();
    photonn_trace::set_enabled(false);
    let window = Window::collect();
    summarize(report, "lo (traced)", RATE_LO, &lo);
    summarize(report, "hi (traced)", RATE_HI, &hi);

    let requests = (lo.latency.len() + hi.latency.len()) as f64;
    let batches = (metrics.batches_total - before_metrics.batches_total).max(1) as f64;
    let jobs: u64 = metrics.per_shard.iter().map(|s| s.jobs).sum::<u64>()
        - before_metrics.per_shard.iter().map(|s| s.jobs).sum::<u64>();
    let hits = metrics.cache_hits - before_metrics.cache_hits;
    let misses = metrics.cache_misses - before_metrics.cache_misses;
    let mut stage_mean_ms = 0.0;
    for (span, metric) in [
        ("serve.queue_wait", "serve.queue_wait_ms"),
        ("serve.batch_assemble", "serve.assemble_ms"),
        ("serve.forward", "serve.forward_ms"),
        ("serve.write", "serve.write_ms"),
    ] {
        let d = window.durations_ms(span);
        report.set(&format!("{metric}.p50"), median(&d));
        report.set(&format!("{metric}.tail"), tail(&d).0);
        // Per-request share: queue waits are per job; a batch's assemble
        // and forward spans are waited on by each of its requests; writes
        // are per response.
        let total: f64 = d.iter().sum();
        stage_mean_ms += match span {
            "serve.queue_wait" => total / jobs.max(1) as f64,
            "serve.write" => total / requests,
            _ => total / batches,
        };
    }
    report.set("serve.batch_mean", jobs as f64 / batches);
    report.set(
        "serve.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    report.set(
        "serve.steals",
        (metrics.steals_total - before_metrics.steals_total) as f64,
    );
    report.set(
        "serve.sheds",
        (metrics.sheds_total - before_metrics.sheds_total) as f64,
    );
    report.set(
        "serve.degraded_batches",
        (metrics.degraded_batches - before_metrics.degraded_batches) as f64,
    );
    report.set(
        "serve.queue_depth.max",
        lo.inflight_max.max(hi.inflight_max) as f64,
    );
    report.set(
        "alloc.count",
        (alloc_after.0 - alloc_before.0) as f64 / requests,
    );
    report.set(
        "alloc.bytes",
        (alloc_after.1 - alloc_before.1) as f64 / requests,
    );
    let traced_ok = lo.ok_latencies();
    report.set(
        "trace.overhead_pct",
        100.0 * (median(&traced_ok) - median(&plain_ok)) / median(&plain_ok),
    );
    let mean_latency: f64 = {
        let all: Vec<f64> = traced_ok
            .iter()
            .chain(&hi.ok_latencies())
            .copied()
            .collect();
        all.iter().sum::<f64>() / all.len().max(1) as f64
    };
    let (parse_us, decode_us, encode_us, engine_ms) = call_costs(pool, &oracle.registry, &hi);
    report.set("http.parse_us", parse_us);
    report.set("wire.decode_us", decode_us);
    report.set("wire.encode_us", encode_us);
    report.set("engine.logits_batch_ms", engine_ms);
    report.set(
        "attributed_fraction",
        (stage_mean_ms + (parse_us + decode_us + encode_us) / 1e3) / mean_latency,
    );
    let late: Vec<f64> = lo.late.iter().chain(&hi.late).copied().collect();
    report.set("gen.late_ms.tail", tail(&late).0);
    report.set("gen.late_ms.max", late.iter().copied().fold(0.0, f64::max));
    phases.push(("lo (untraced)".into(), plain));
    phases.push(("lo".into(), lo));
    phases.push(("hi".into(), hi));
}

/// Mean cost of the benchmark's own calls into the serving layers on
/// the work the server does per request: `http::parse_available` on
/// generated requests (µs), `Json::parse` of their bodies (µs), `Json`
/// encoding of the served answers (µs), and `ServedModel::logits_batch`
/// on a `/v2`-sized batch (ms).
fn call_costs(pool: &Pool, registry: &ModelRegistry, phase: &Phase) -> (f64, f64, f64, f64) {
    let sample = &phase.sample;
    let requests: Vec<Vec<u8>> = sample.iter().map(|(r, _)| pool.request(r)).collect();
    let per = |t: Instant| t.elapsed().as_secs_f64() * 1e6 / sample.len().max(1) as f64;

    let mut bodies = Vec::with_capacity(requests.len());
    let t = Instant::now();
    for bytes in &requests {
        match parse_available(bytes, MAX_BODY_BYTES) {
            Ok(ParseOutcome::Ready { request, .. }) => bodies.push(request.body),
            other => panic!("generated request does not parse: {other:?}"),
        }
    }
    let parse_us = per(t);

    let t = Instant::now();
    for body in &bodies {
        let text = std::str::from_utf8(body).expect("UTF-8 body");
        std::hint::black_box(Json::parse(text).expect("request body parses"));
    }
    let decode_us = per(t);

    let answers: Vec<Json> = sample
        .iter()
        .map(|(_, resp)| {
            Json::parse(std::str::from_utf8(&resp.body).expect("UTF-8 body"))
                .expect("served body parses")
        })
        .collect();
    let t = Instant::now();
    for doc in &answers {
        std::hint::black_box(doc.to_string());
    }
    let encode_us = per(t);

    let model = registry.get(VARIANTS[0]).expect("ideal variant");
    let images: Vec<&Grid> = (0..V2_BATCH).map(|s| pool.image(s)).collect();
    let reps = 16;
    let t = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(model.logits_batch(&images, 1));
    }
    let engine_ms = t.elapsed().as_secs_f64() * 1e3 / reps as f64;
    (parse_us, decode_us, encode_us, engine_ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = schedule(7, 500.0, Duration::from_secs(2));
        let b = schedule(7, 500.0, Duration::from_secs(2));
        let c = schedule(8, 500.0, Duration::from_secs(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn schedule_is_evenly_spaced_and_mixed() {
        let s = schedule(3, 1000.0, Duration::from_secs(4));
        for w in s.windows(2) {
            let gap = (w[1].due - w[0].due).as_secs_f64();
            assert!((gap - 1e-3).abs() < 1e-9, "gap {gap}");
        }
        let v2 = s.iter().filter(|r| r.head.is_some()).count() as f64 / s.len() as f64;
        assert!((v2 - V2_SHARE).abs() < 0.03, "v2 share {v2}");
        let diff = s
            .iter()
            .filter(|r| r.head == Some(ReadoutHead::Differential))
            .count() as f64;
        assert!((diff / (v2 * s.len() as f64) - 0.5).abs() < 0.08);
        assert!(s
            .iter()
            .all(|r| r.images.len() == if r.head.is_some() { V2_BATCH } else { 1 }));
        assert!(s
            .iter()
            .all(|r| r.conn < CONNECTIONS && r.variant < VARIANTS.len()));
    }

    #[test]
    fn image_draws_are_skewed_but_cover_the_pool() {
        let s = schedule(11, 2000.0, Duration::from_secs(5));
        let draws: Vec<f64> = s
            .iter()
            .flat_map(|r| r.images.iter().map(|&i| i as f64))
            .collect();
        // ⌊POOL·u³⌋: half the draws land in the first eighth of the pool.
        let half = quantile(&draws, 0.5);
        assert!(half < POOL as f64 / 6.0, "median slot {half}");
        assert!(draws.iter().any(|&d| d > 0.9 * POOL as f64));
    }

    #[test]
    fn ladder_is_geometric_and_fixed() {
        assert_eq!(ladder(0), 400.0);
        assert!((ladder(12) - 800.0).abs() < 1e-9);
        assert!((ladder(LADDER_STEPS - 1) - 12_800.0).abs() < 1e-6);
    }
}
