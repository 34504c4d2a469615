//! `serve-zipf`: open-loop traffic over loopback TCP against
//! `Server::spawn(ServerConfig::default())`, and the server probe the
//! traced runs of the other workloads use on their own patterns.
//!
//! One connection, pipelined: a sender thread writes each request at its
//! due time (a fixed rate), a receiver thread reads replies as they come.
//! Latency is timed from when a request was *due*, so a stalled generator
//! shows up as latency rather than disappearing; how late the generator
//! itself ran is reported separately (`loadgen.late_*`).

use crate::inputs::{factors_of, SolveSet};
use crate::util::{fast_quartile, median, median_ns, ns, quantile, share, windows, Metrics, Tally};
use rtpl::server::client::{MAX_RETRIES, MAX_RETRY_SLEEP};
use rtpl::server::proto::{self, Request, Response};
use rtpl::server::{Server, ServerConfig};
use rtpl::sparse::rng::SmallRng;
use rtpl::workload::{pattern_set, ZipfMix};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Distinct patterns registered during set-up.
pub const PATTERNS: usize = 16;
/// Mesh side of each pattern: n = 144.
const MESH: usize = 12;
/// Zipf exponent of the pattern popularity.
const ZIPF: f64 = 1.1;
/// Share of requests that re-ship their (unchanged) factors as a full
/// `Solve`; the rest go by fingerprint.
const RESHIP_SHARE: f64 = 0.10;

/// Offered rates (requests/s) of the open-loop phases, fixed from the
/// `serve-capacity` sweep on a 2-core host (see METRICS.md): light leaves
/// the gather window without batching partners, heavy is about half the
/// lowest capacity measured (batching pays), overload is well above the
/// highest, so the server must refuse.
pub const LIGHT_RPS: f64 = 1000.0;
pub const HEAVY_RPS: f64 = 8000.0;
pub const OVERLOAD_RPS: f64 = 40000.0;

/// Requests kept outstanding in the saturation phase: half the
/// connection's quota (`client_inflight`), so a reply that overtakes the
/// server's quota release never causes a refusal.
fn saturation_window() -> usize {
    (ServerConfig::default().client_inflight / 2).max(1)
}

/// Requests planned per second of the saturation phase's share (a little
/// under the capacities measured, so the phase fits its share).
const SATURATION_PLAN_RPS: f64 = 20000.0;

/// Window width of the fast-quartile statistic, seconds.
const WINDOW_S: f64 = 0.5;

impl PhaseResult {
    /// `stat` of the due-time latency in each window of the phase.
    fn per_window(&self, stat: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        let samples: Vec<(f64, f64)> = self
            .due_at
            .iter()
            .copied()
            .zip(self.due_ns.iter().copied())
            .collect();
        windows(&samples, WINDOW_S, 50, stat)
    }
}

/// Shares of the measured seconds spent in the light, heavy, saturation
/// and overload phases.
const PHASE_SHARE: [f64; 4] = [0.25, 0.3, 0.3, 0.15];

/// Seconds of one light → heavy → saturation cycle. The run repeats the
/// cycle over its measured time (overload runs once, at the end), so each
/// phase samples the host across the whole run rather than in one block
/// that may fall in a slow stretch.
const CYCLE_S: f64 = 2.5;

/// One request of the stream: which pattern, and whether it re-ships.
#[derive(Clone, Copy)]
struct Req {
    rank: usize,
    reship: bool,
}

/// What one open-loop phase observed.
#[derive(Default)]
pub struct PhaseResult {
    /// Reply time minus due time, ns, one per correctly solved request.
    pub due_ns: Vec<f64>,
    /// Due time of those requests, seconds since the phase began.
    pub due_at: Vec<f64>,
    /// Reply time minus send time, ns.
    pub sent_ns: Vec<f64>,
    /// Send time minus due time, ns, one per request.
    pub late_ns: Vec<f64>,
    pub offered: u64,
    pub solved_ok: u64,
    /// `RetryAfter` replies received (every attempt, retried or final).
    pub refused: u64,
    /// Whether a refusal was the request's final answer (`Refusal::Final`).
    pub refusals_final: bool,
    pub errors: u64,
    pub wrong: u64,
    /// First due time to last reply, seconds.
    pub wall_s: f64,
}

impl PhaseResult {
    /// Counts this phase into a tally: wrong answers, errors (retries
    /// exhausted included) and requests that never got a final reply.
    /// A refusal absorbed by a retry is not a failure; a final refusal is
    /// only taken in the overload phase, where refusing is the expected
    /// behaviour, so it is not one either.
    pub fn tally(&self) -> Tally {
        let mut answered = self.solved_ok + self.errors + self.wrong;
        if self.refusals_final {
            answered += self.refused;
        }
        Tally {
            attempted: self.offered,
            failed: self.errors + self.wrong + self.offered.saturating_sub(answered),
            wrong: self.wrong,
        }
    }
}

/// A connection to the server, split into halves for pipelining.
pub struct Conn {
    writer: BufWriter<TcpStream>,
    reader: BufReader<TcpStream>,
    next_id: u64,
}

impl Conn {
    pub fn connect(server: &Server) -> Result<Conn, String> {
        let s = TcpStream::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let r = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: BufWriter::new(s),
            reader: BufReader::new(r),
            next_id: 1,
        })
    }

    /// One blocking round trip.
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        let id = self.next_id;
        self.next_id += 1;
        proto::write_frame(&mut self.writer, &proto::encode_request(id, req))
            .map_err(|e| format!("send: {e}"))?;
        let payload = proto::read_frame(&mut self.reader)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or("server closed the connection")?;
        let (got, resp) = proto::decode_response(&payload).map_err(|e| e.to_string())?;
        if got != id {
            return Err(format!("reply id {got} for request {id}"));
        }
        Ok(resp)
    }
}

fn request_for(set: &SolveSet, r: Req) -> Request {
    let f = &set.factors[r.rank];
    if r.reship {
        Request::Solve {
            l: f.l.clone(),
            u: f.u.clone(),
            b: set.rhs[r.rank].clone(),
        }
    } else {
        Request::SolveByFingerprint {
            key: set.keys[r.rank],
            b: set.rhs[r.rank].clone(),
        }
    }
}

/// How a phase offers load.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop: request `i` is due at `i / rate` seconds.
    Rate(f64),
    /// Closed loop: keep this many requests outstanding; each is due when
    /// a reply frees its slot.
    Window(usize),
}

/// What to do with a `RetryAfter`.
#[derive(Clone, Copy, PartialEq)]
enum Refusal {
    /// Resend after the server's suggested delay, as
    /// `Client::call_retrying` does (jittered 0.5–1.5×, capped, at most
    /// `MAX_RETRIES` times). The request stays timed from its first due
    /// time, so the refusal and the wait behind it show as latency.
    Retry,
    /// Take the refusal as the request's answer (the overload phase,
    /// where refusing is the expected behaviour).
    Final,
}

/// What the receiver tells the sender.
enum Note {
    /// A reply freed a slot of the closed-loop window.
    Credit,
    /// Request `id` (pattern `rank`, first due at `due`) was refused;
    /// resend it at `at`.
    Resend {
        at: Instant,
        id: u64,
        rank: usize,
        due: Instant,
    },
}

/// Runs `stream` on `conn` under `load`, checking every solved reply
/// bit-exactly, and waits for every final reply.
fn run_phase(
    conn: &mut Conn,
    set: &SolveSet,
    stream: &[Req],
    load: Load,
    refusal: Refusal,
) -> PhaseResult {
    let mut out = PhaseResult {
        offered: stream.len() as u64,
        refusals_final: refusal == Refusal::Final,
        ..PhaseResult::default()
    };
    let (tx, rx) = mpsc::channel::<(u64, Instant, Instant, usize)>();
    let (note_tx, note_rx) = mpsc::channel::<Note>();
    let first_id = conn.next_id;
    conn.next_id += stream.len() as u64;
    let Conn { writer, reader, .. } = conn;
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut last_reply = t0;
    std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut late = Vec::with_capacity(stream.len());
            let mut resends: BinaryHeap<Reverse<(Instant, u64, usize, Instant)>> =
                BinaryHeap::new();
            let mut credits = match load {
                Load::Window(k) => k,
                Load::Rate(_) => 0,
            };
            let mut i = 0usize;
            loop {
                let now = Instant::now();
                // The next request to write, if one is ready now:
                // (id, rank, due, fresh).
                let mut ready = None;
                let mut wake = None;
                if let Some(&Reverse((at, id, rank, due))) = resends.peek() {
                    if at <= now {
                        resends.pop();
                        ready = Some((id, rank, due, false));
                    } else {
                        wake = Some(at);
                    }
                }
                if ready.is_none() && i < stream.len() {
                    let id = first_id + i as u64;
                    let rank = stream[i].rank;
                    match load {
                        Load::Rate(rate) => {
                            let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                            if due <= now {
                                ready = Some((id, rank, due, true));
                            } else {
                                wake = Some(wake.map_or(due, |w: Instant| w.min(due)));
                            }
                        }
                        Load::Window(_) if credits > 0 => {
                            credits -= 1;
                            ready = Some((id, rank, now.max(t0), true));
                        }
                        Load::Window(_) => {}
                    }
                }
                if let Some((id, rank, due, fresh)) = ready {
                    let req = if fresh {
                        i += 1;
                        stream[i - 1]
                    } else {
                        stream[(id - first_id) as usize]
                    };
                    let payload = proto::encode_request(id, &request_for(set, req));
                    let sent = Instant::now();
                    if fresh {
                        late.push(ns(sent.saturating_duration_since(due)));
                    }
                    if tx.send((id, due, sent, rank)).is_err()
                        || proto::write_frame(writer, &payload).is_err()
                    {
                        break;
                    }
                    continue;
                }
                let note = match wake {
                    Some(w) => note_rx.recv_timeout(w.saturating_duration_since(now)),
                    None => note_rx
                        .recv()
                        .map_err(|_| mpsc::RecvTimeoutError::Disconnected),
                };
                match note {
                    Ok(Note::Credit) => credits += 1,
                    Ok(Note::Resend { at, id, rank, due }) => {
                        resends.push(Reverse((at, id, rank, due)))
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    // The receiver has every final reply (or lost the
                    // connection): nothing is left to send.
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                }
            }
            late
        });
        let mut jitter = SmallRng::seed_from_u64(first_id);
        let mut refusals: HashMap<u64, u32> = HashMap::new();
        let mut pending: HashMap<u64, (Instant, Instant, usize)> = HashMap::new();
        let mut answered = 0usize;
        while answered < stream.len() {
            let payload = match proto::read_frame(reader) {
                Ok(Some(p)) => p,
                _ => break,
            };
            let now = Instant::now();
            let Ok((id, resp)) = proto::decode_response(&payload) else {
                out.errors += 1;
                answered += 1;
                continue;
            };
            while !pending.contains_key(&id) {
                match rx.recv() {
                    Ok((i, due, sent, rank)) => {
                        pending.insert(i, (due, sent, rank));
                    }
                    Err(_) => break,
                }
            }
            let Some((due, sent, rank)) = pending.remove(&id) else {
                out.errors += 1;
                answered += 1;
                continue;
            };
            if let Response::RetryAfter { retry_ms, .. } = resp {
                out.refused += 1;
                let n = refusals.entry(id).or_insert(0);
                *n += 1;
                if refusal == Refusal::Retry && *n <= MAX_RETRIES {
                    let delay = Duration::from_millis(u64::from(retry_ms).max(1))
                        .min(MAX_RETRY_SLEEP)
                        .mul_f64(0.5 + jitter.gen_f64());
                    let at = now + delay;
                    if note_tx.send(Note::Resend { at, id, rank, due }).is_ok() {
                        continue;
                    }
                }
                // A final refusal, or retries exhausted: this request's
                // answer is the refusal.
                if refusal == Refusal::Retry {
                    out.errors += 1;
                }
                answered += 1;
                last_reply = now;
                let _ = note_tx.send(Note::Credit);
                continue;
            }
            answered += 1;
            last_reply = now;
            let _ = note_tx.send(Note::Credit);
            match resp {
                Response::Solved { x, .. } => {
                    if crate::util::bit_exact(&x, &set.refs[rank]) {
                        out.solved_ok += 1;
                        out.due_ns.push(ns(now - due));
                        out.due_at.push((due - t0).as_secs_f64());
                        out.sent_ns.push(ns(now - sent));
                    } else {
                        out.wrong += 1;
                    }
                }
                _ => out.errors += 1,
            }
        }
        drop(note_tx);
        out.late_ns = sender.join().unwrap_or_default();
    });
    out.wall_s = last_reply.saturating_duration_since(t0).as_secs_f64();
    out
}

/// Seeded request stream: Zipf-ranked patterns, a share re-shipped.
fn stream(len: usize, patterns: usize, seed: u64) -> Vec<Req> {
    let mix = ZipfMix::new(patterns, ZIPF);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x51_7e_a3);
    (0..len)
        .map(|_| Req {
            rank: mix.sample(&mut rng),
            reship: rng.gen_f64() < RESHIP_SHARE,
        })
        .collect()
}

/// Spawns the server and registers every pattern with a full `Solve`
/// (checked): the set-up a user pays before serving.
fn spawn_and_register(set: &SolveSet) -> Result<(Server, Conn, Tally), String> {
    let server = Server::spawn(ServerConfig::default()).map_err(|e| format!("spawn: {e}"))?;
    let mut conn = Conn::connect(&server)?;
    let mut tally = Tally::default();
    for rank in 0..set.len() {
        match conn.call(&request_for(set, Req { rank, reship: true }))? {
            Response::Solved { x, .. } => tally.check(&x, &set.refs[rank]),
            _ => tally.fail(),
        }
    }
    Ok((server, conn, tally))
}

/// Parses one `name value` line of the metrics text.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Server-side numbers: read at one instant, or the change between two
/// readings (`since`).
#[derive(Default)]
struct ServerView {
    service_p50_ns: f64,
    batches: f64,
    batch_jobs: f64,
    builds: f64,
}

fn server_view(server: &Server) -> ServerView {
    let text = server.metrics_text();
    ServerView {
        service_p50_ns: metric(&text, "rtpl_server_latency_solve_by_fingerprint_p50_ns"),
        batches: metric(&text, "rtpl_batches"),
        batch_jobs: metric(&text, "rtpl_batch_jobs"),
        builds: metric(&text, "rtpl_solve_cache_builds"),
    }
}

impl ServerView {
    /// The counters' change since `earlier`, plus this reading's p50.
    fn since(&self, earlier: &ServerView) -> ServerView {
        ServerView {
            service_p50_ns: self.service_p50_ns,
            batches: self.batches - earlier.batches,
            batch_jobs: self.batch_jobs - earlier.batch_jobs,
            builds: self.builds - earlier.builds,
        }
    }

    /// Adds another change of the counters; keeps the later p50.
    fn add(&mut self, d: ServerView) {
        self.service_p50_ns = d.service_p50_ns;
        self.batches += d.batches;
        self.batch_jobs += d.batch_jobs;
        self.builds += d.builds;
    }
}

/// Records the server-layer and generator metrics of the light, heavy
/// and overload phases into `m`; `lh` is the server's change over the
/// light and heavy phases.
fn server_layers(
    m: &mut Metrics,
    set: &SolveSet,
    light: &PhaseResult,
    heavy: &PhaseResult,
    overload: &PhaseResult,
    lh: &ServerView,
) {
    let mut sent: Vec<f64> = light.sent_ns.clone();
    sent.extend_from_slice(&heavy.sent_ns);
    m.set("server.service_p50_us", lh.service_p50_ns / 1e3, "us");
    // A difference of two medians, not a median of differences.
    m.set(
        "server.wire_p50_us",
        (median(&sent) - lh.service_p50_ns) / 1e3,
        "us",
    );
    m.set(
        "server.p99_us.light",
        quantile(&light.due_ns, 0.99) / 1e3,
        "us",
    );
    m.set(
        "server.p99_us.heavy",
        quantile(&heavy.due_ns, 0.99) / 1e3,
        "us",
    );
    let mut late = light.late_ns.clone();
    late.extend_from_slice(&heavy.late_ns);
    m.set("loadgen.late_p99_us", quantile(&late, 0.99) / 1e3, "us");
    m.set(
        "loadgen.late_max_us",
        late.iter().copied().fold(0.0, f64::max) / 1e3,
        "us",
    );
    m.set(
        "server.overload_goodput_rps",
        share(overload.solved_ok as f64, overload.wall_s),
        "1/s",
    );
    m.set(
        "server.rejected_share",
        share(overload.refused as f64, overload.offered as f64),
        "ratio",
    );
    m.set(
        "server.retried_share",
        share(
            (light.refused + heavy.refused) as f64,
            (light.offered + heavy.offered) as f64,
        ),
        "ratio",
    );
    m.set(
        "batch.jobs_per_group",
        share(lh.batch_jobs, lh.batches),
        "count",
    );
    m.set("batch.cold_groups", lh.builds, "count");
    proto_layers(m, set);
}

/// Encode + decode of the two request frame kinds the workload sends.
pub fn proto_layers(m: &mut Metrics, set: &SolveSet) {
    let reps = (2000 / set.len()).clamp(3, 200);
    let mut rhs = Vec::new();
    let mut factors = Vec::new();
    for rank in 0..set.len() {
        for (reship, acc) in [(false, &mut rhs), (true, &mut factors)] {
            let req = request_for(set, Req { rank, reship });
            acc.push(median_ns(reps, || {
                proto::decode_request(&proto::encode_request(7, &req))
            }));
        }
    }
    m.set("server.proto_rhs_us", median(&rhs) / 1e3, "us");
    m.set("server.proto_factors_us", median(&factors) / 1e3, "us");
}

/// One phase's instances, run-wide: samples and counts concatenated.
/// Due times (`due_at`) are per instance and not kept.
fn merged(parts: &[PhaseResult]) -> PhaseResult {
    let mut out = PhaseResult::default();
    for p in parts {
        out.due_ns.extend_from_slice(&p.due_ns);
        out.sent_ns.extend_from_slice(&p.sent_ns);
        out.late_ns.extend_from_slice(&p.late_ns);
        out.offered += p.offered;
        out.solved_ok += p.solved_ok;
        out.refused += p.refused;
        out.refusals_final = p.refusals_final;
        out.errors += p.errors;
        out.wrong += p.wrong;
        out.wall_s += p.wall_s;
    }
    out
}

/// The serve-zipf workload.
pub fn run(args: &crate::util::Args) -> Result<crate::Outcome, String> {
    let patterns = pattern_set(PATTERNS, MESH, args.seed);
    let set = SolveSet::new(patterns.iter().map(factors_of).collect(), args.seed)?;
    let mut tally = Tally::default();

    // Set-up: spawn + register the working set. The first server is the
    // one measured; the other set-ups are spread over the cycles and shut
    // down again.
    let setup_once = |tally: &mut Tally| -> Result<(Server, Conn, f64), String> {
        let t0 = Instant::now();
        let (server, conn, t) = spawn_and_register(&set)?;
        let secs = t0.elapsed().as_secs_f64();
        tally.add(t);
        Ok((server, conn, secs))
    };
    let (server, mut conn, first) = setup_once(&mut tally)?;

    let secs = args.seconds;
    let mut setups = crate::Setups::new(
        secs * (1.0 - PHASE_SHARE[3]),
        Box::new(move |t| {
            let (server, conn, secs) = setup_once(t)?;
            drop(conn);
            server.shutdown().map_err(|e| e.to_string())?;
            Ok(secs)
        }),
    );
    setups.record(first);
    let cycles = ((secs * (1.0 - PHASE_SHARE[3]) / CYCLE_S).round() as usize).max(1);
    let per_cycle = |rate: f64, share: f64| (rate * secs * share / cycles as f64).ceil() as usize;
    let counts = [
        per_cycle(LIGHT_RPS, PHASE_SHARE[0]),
        per_cycle(HEAVY_RPS, PHASE_SHARE[1]),
        per_cycle(SATURATION_PLAN_RPS, PHASE_SHARE[2]),
    ];
    let n_over = (OVERLOAD_RPS * secs * PHASE_SHARE[3]).ceil() as usize;
    let cycle_len: usize = counts.iter().sum();
    let s = stream(cycle_len * cycles + n_over, set.len(), args.seed);
    let (s_cycles, s_over) = s.split_at(cycle_len * cycles);

    let mut e2e = Metrics::default();
    let mut layers = Metrics::default();
    let mut untraced_light = None;
    if args.trace {
        // Untraced reference pass for the tracing overhead: half a light
        // phase, before any layer is probed.
        let r = run_phase(
            &mut conn,
            &set,
            &s_cycles[..counts[0] / 2],
            Load::Rate(LIGHT_RPS),
            Refusal::Retry,
        );
        tally.add(r.tally());
        untraced_light = Some(median(&r.due_ns));
    }
    let (mut lights, mut heavies, mut sats) = (Vec::new(), Vec::new(), Vec::new());
    let mut lh = ServerView::default();
    let t0 = Instant::now();
    for c in s_cycles.chunks(cycle_len) {
        setups.tick(t0.elapsed().as_secs_f64(), &mut tally)?;
        let (c_light, rest) = c.split_at(counts[0]);
        let (c_heavy, c_sat) = rest.split_at(counts[1]);
        let v0 = server_view(&server);
        lights.push(run_phase(
            &mut conn,
            &set,
            c_light,
            Load::Rate(LIGHT_RPS),
            Refusal::Retry,
        ));
        heavies.push(run_phase(
            &mut conn,
            &set,
            c_heavy,
            Load::Rate(HEAVY_RPS),
            Refusal::Retry,
        ));
        // Batching counters over the light and heavy phases only.
        lh.add(server_view(&server).since(&v0));
        sats.push(run_phase(
            &mut conn,
            &set,
            c_sat,
            Load::Window(saturation_window()),
            Refusal::Retry,
        ));
    }
    // Set-ups the cycles left over run here, before the overload phase.
    let setup_s = setups.median(&mut tally)?;
    let over = run_phase(
        &mut conn,
        &set,
        s_over,
        Load::Rate(OVERLOAD_RPS),
        Refusal::Final,
    );
    for p in lights.iter().chain(&heavies).chain(&sats).chain([&over]) {
        tally.add(p.tally());
    }

    let per_window = |parts: &[PhaseResult], stat: &dyn Fn(&[f64]) -> f64| -> Vec<f64> {
        parts.iter().flat_map(|p| p.per_window(stat)).collect()
    };
    e2e.set("setup_s", setup_s, "s");
    e2e.set(
        "a_p50_us",
        fast_quartile(&per_window(&lights, &median), true) / 1e3,
        "us",
    );
    e2e.set(
        "b_p50_us",
        fast_quartile(&per_window(&heavies, &median), true) / 1e3,
        "us",
    );
    e2e.set(
        "p90_us",
        fast_quartile(&per_window(&heavies, &|w| quantile(w, 0.9)), true) / 1e3,
        "us",
    );
    // One saturation instance (about 1 s) is one window of the rate.
    let goodput: Vec<f64> = sats
        .iter()
        .map(|p| share(p.solved_ok as f64, p.wall_s))
        .collect();
    e2e.set("rate_per_s", fast_quartile(&goodput, false), "1/s");
    let (light, heavy, sat) = (merged(&lights), merged(&heavies), merged(&sats));
    println!(
        "# serve-zipf rates light={LIGHT_RPS} heavy={HEAVY_RPS} overload={OVERLOAD_RPS} req/s, saturation window {}, {cycles} cycles; \
         light_p50_us={} heavy_p50_us={} heavy_p90_us={} saturation_rps={} overload goodput_rps={} (run-wide); \
         samples light={} heavy={} overload_offered={} overload_refused={}; refusals retried light={} heavy={} saturation={}",
        saturation_window(),
        median(&light.due_ns) / 1e3,
        median(&heavy.due_ns) / 1e3,
        quantile(&heavy.due_ns, 0.9) / 1e3,
        share(sat.solved_ok as f64, sat.wall_s),
        share(over.solved_ok as f64, over.wall_s),
        light.due_ns.len(),
        heavy.due_ns.len(),
        over.offered,
        over.refused,
        light.refused,
        heavy.refused,
        sat.refused
    );

    if args.trace {
        server_layers(&mut layers, &set, &light, &heavy, &over, &lh);
        if let Some(u) = untraced_light {
            layers.set(
                "trace.overhead_share",
                share(median(&light.due_ns) - u, u),
                "ratio",
            );
        }
        crate::trace_common(
            &mut layers,
            server.runtime(),
            &set,
            &mut tally,
            crate::Common {
                server: false,
                batch: false,
                ..crate::Common::default()
            },
        )?;
    }
    let plan = crate::layers::plan_stamp(server.runtime());
    server.shutdown().map_err(|e| e.to_string())?;
    Ok(crate::Outcome {
        e2e,
        layers,
        tally,
        plan,
        working_set_bytes: set.working_set_bytes(),
    })
}

/// The server probe of the other workloads' traced runs: the same
/// open-loop generator on the workload's own patterns, at a light, a
/// heavy and an overload rate derived from a closed-loop service time
/// (10%, 50% and 400% of one request at a time).
pub fn server_probe(m: &mut Metrics, set: &SolveSet, tally: &mut Tally) -> Result<(), String> {
    let (server, mut conn, t) = spawn_and_register(set)?;
    tally.add(t);
    let mut closed = Vec::new();
    for i in 0..20 {
        let rank = i % set.len();
        let t0 = Instant::now();
        let resp = conn.call(&request_for(
            set,
            Req {
                rank,
                reship: false,
            },
        ))?;
        closed.push(t0.elapsed().as_secs_f64());
        match resp {
            Response::Solved { x, .. } => tally.check(&x, &set.refs[rank]),
            _ => tally.fail(),
        }
    }
    let service = median(&closed).max(1e-6);
    let light_rate = 0.1 / service;
    let heavy_rate = 0.5 / service;
    let over_rate = 4.0 / service;
    let n_light = (light_rate as usize).clamp(20, 2000);
    let n_heavy = (heavy_rate as usize).clamp(20, 8000);
    let n_over = (over_rate as usize).clamp(40, 20000);
    let mut s = stream(n_light + n_heavy + n_over, set.len(), 0x9e37);
    for r in &mut s {
        r.reship = false;
    }
    let before = server_view(&server);
    let light = run_phase(
        &mut conn,
        set,
        &s[..n_light],
        Load::Rate(light_rate),
        Refusal::Retry,
    );
    let heavy = run_phase(
        &mut conn,
        set,
        &s[n_light..n_light + n_heavy],
        Load::Rate(heavy_rate),
        Refusal::Retry,
    );
    let lh = server_view(&server).since(&before);
    let over = run_phase(
        &mut conn,
        set,
        &s[n_light + n_heavy..],
        Load::Rate(over_rate),
        Refusal::Final,
    );
    tally.add(light.tally());
    tally.add(heavy.tally());
    tally.add(over.tally());
    server_layers(m, set, &light, &heavy, &over, &lh);
    server.shutdown().map_err(|e| e.to_string())?;
    Ok(())
}

/// `serve-capacity` (not a benchmark workload): the sweep that fixed the
/// three open-loop rates. Each rate runs open-loop for `--seconds / 10`
/// on the serve-zipf patterns, then the closed-loop saturation phase
/// runs; prints latency quantiles from due time, refusals and generator
/// lateness per rate, and the saturation throughput.
pub fn capacity(args: &crate::util::Args) -> Result<crate::Outcome, String> {
    let patterns = pattern_set(PATTERNS, MESH, args.seed);
    let set = SolveSet::new(patterns.iter().map(factors_of).collect(), args.seed)?;
    let (server, mut conn, mut tally) = spawn_and_register(&set)?;
    let rates = [
        1000.0, 2000.0, 4000.0, 8000.0, 12000.0, 16000.0, 24000.0, 32000.0, 40000.0,
    ];
    let mut e2e = Metrics::default();
    for rate in rates {
        let n = (rate * args.seconds / 10.0).ceil() as usize;
        let r = run_phase(
            &mut conn,
            &set,
            &stream(n, set.len(), args.seed ^ rate as u64),
            Load::Rate(rate),
            Refusal::Final,
        );
        tally.add(r.tally());
        println!(
            "# capacity rate={rate} offered={} solved={} goodput_rps={:.0} refused_share={:.4} p50_us={:.0} p90_us={:.0} p99_us={:.0} late_p99_us={:.0}",
            r.offered,
            r.solved_ok,
            share(r.solved_ok as f64, r.wall_s),
            share(r.refused as f64, r.offered as f64),
            median(&r.due_ns) / 1e3,
            quantile(&r.due_ns, 0.9) / 1e3,
            quantile(&r.due_ns, 0.99) / 1e3,
            quantile(&r.late_ns, 0.99) / 1e3
        );
        e2e.set(
            &format!("goodput_rps.{rate}"),
            share(r.solved_ok as f64, r.wall_s),
            "1/s",
        );
    }
    let n = (SATURATION_PLAN_RPS * args.seconds / 10.0).ceil() as usize;
    let sat = run_phase(
        &mut conn,
        &set,
        &stream(n, set.len(), args.seed),
        Load::Window(saturation_window()),
        Refusal::Retry,
    );
    tally.add(sat.tally());
    println!(
        "# capacity saturation window={} solved={} rps={:.0} refused_share={:.4}",
        saturation_window(),
        sat.solved_ok,
        share(sat.solved_ok as f64, sat.wall_s),
        share(sat.refused as f64, sat.offered as f64)
    );
    e2e.set(
        "saturation_rps",
        share(sat.solved_ok as f64, sat.wall_s),
        "1/s",
    );
    let plan = crate::layers::plan_stamp(server.runtime());
    server.shutdown().map_err(|e| e.to_string())?;
    Ok(crate::Outcome {
        e2e,
        layers: Metrics::default(),
        tally,
        plan,
        working_set_bytes: set.working_set_bytes(),
    })
}
