//! The repository benchmark: host frames/s, request latency, set-up time,
//! memory, modelled KFPS/W and error against the fp32 reference, on three
//! workloads.
//!
//! ```text
//! cargo bench --offline --quiet --manifest-path perfbench/Cargo.toml --bench repo -- \
//!     --workload kernel_noisy --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the traced
//! variant, which records spans around each call into a layer and prints
//! the per-layer metrics. The last stdout line is the JSON result. The
//! process exits non-zero when the verification pass finds a mismatch.
//! See `perfbench/WORKLOADS.md` for why each workload exists and which
//! layer metric should move which end-to-end metric.

use lightator_baselines::electronic::ElectronicBaseline;
use lightator_baselines::reference::ElectronicReference;
use lightator_core::backend::{Backend, BackendId};
use lightator_core::ca::CaConfig;
use lightator_core::exec::PhotonicExecutor;
use lightator_core::mapping::HardwareMapper;
use lightator_core::oc::PhotonicMacUnit;
use lightator_core::plan::CompiledPlan;
use lightator_core::platform::{ImageKernel, Platform, Report, Session, Workload};
use lightator_core::stream::{StreamConfig, StreamReport, TemporalDifferencer};
use lightator_core::verify::performance_spec;
use lightator_nn::layers::LayerNode;
use lightator_nn::quant::quantize_unsigned;
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::{CounterRng, NoiseChannel, NoiseConfig};
use lightator_photonics::units::Time;
use lightator_sensor::frame::RgbFrame;
use lightator_serve::{Pending, Priority, Request, Response, Server, SloConfig};
use perfbench::args::{self, Args, WorkloadName};
use perfbench::inputs::{self, Mix, MixRequest, RequestKind, STREAM_FRAMES};
use perfbench::report::{result_line, Metric};
use perfbench::stats;
use perfbench::verify::{Nrmse, Verification};
use std::error::Error;
use std::hint::black_box;
use std::process::ExitCode;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

type Res<T> = Result<T, Box<dyn Error>>;

/// Set-up is timed in slices spread over the timed loop: every
/// `SETUP_EVERY` of loop time the loop pauses (the pause is excluded from
/// its throughput) and repeats the set-up for `SETUP_SLICE`. On a shared
/// 2-core host the speed drifts by up to 2x within seconds, so set-ups
/// timed in one burst measure the host's state at that moment rather than
/// the code.
const SETUP_EVERY: Duration = Duration::from_secs(1);
const SETUP_SLICE: Duration = Duration::from_millis(20);
/// Set-up time summed into one sample: a kernel set-up takes a few µs, so
/// one sample averages hundreds of them; a classify or serving set-up
/// takes about half a millisecond, so a sample holds two or three.
const SETUP_SAMPLE: Duration = Duration::from_millis(1);
/// Repetitions of the plan-compile and performance-model probes.
const MODEL_REPS: usize = 5;
/// The fp32 electronic reference `ref_nrmse` is measured against.
const REFERENCE_DESIGN: fn() -> ElectronicBaseline = ElectronicBaseline::eyeriss;
/// Outstanding requests the serving generator keeps in flight.
const SERVE_WINDOW: usize = 8;
/// Shards of the serving pool and workers of the classify session, both
/// capped at the host's parallelism.
const PINNED_PARALLELISM: usize = 2;
/// MACs timed per span in the MAC probe (amortises the clock read).
const MACS_PER_SPAN: usize = 8;
/// Frames of the benchmark's own executor checked against a session.
const EXEC_CHECKED_FRAMES: usize = 64;
/// Gaussian draws timed per span in the noise probe.
const DRAWS_PER_SPAN: usize = 256;
/// Share of `--seconds` the traced run drives the workload for, split
/// evenly between untraced and traced blocks.
const TRACED_SHARE: f64 = 0.7;
/// Length of one untraced or traced block. The blocks alternate, so host
/// drift cancels out of `trace.overhead_frac`.
const TRACE_BLOCK: Duration = Duration::from_millis(500);
/// Rounds the executor, row-load and MAC probes alternate in, so host
/// drift cancels out of `exec.other_us_per_frame`.
const PROBE_ROUNDS: u32 = 8;

fn main() -> ExitCode {
    let args = match args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host_line(&args));
    let outcome = match (args.workload, args.trace) {
        (WorkloadName::ServeMixed, false) => serve_end_to_end(&args),
        (WorkloadName::ServeMixed, true) => serve_layers(&args),
        (name, false) => SessionCase::new(name, args.seed).and_then(|c| c.end_to_end(&args)),
        (name, true) => SessionCase::new(name, args.seed).and_then(|c| c.layers(&args)),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("perfbench: {} failed: {err}", args.workload);
            return ExitCode::from(1);
        }
    };
    outcome.print();
    let failed = outcome.failed();
    match result_line(failed == 0, outcome.attempted, failed, &outcome.metrics) {
        Ok(line) => println!("{line}"),
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ---------------------------------------------------------------------------
// Host record, results and tracing
// ---------------------------------------------------------------------------

fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn pinned_parallelism() -> usize {
    PINNED_PARALLELISM.min(parallelism())
}

/// Every input a variable could change, printed with each result. Worker
/// counts are set explicitly on every platform, session, executor and
/// server, so `LIGHTATOR_DEFAULT_WORKERS` is recorded but has no effect.
fn host_line(args: &Args) -> String {
    format!(
        "host: workload={} seed={} seconds={} trace={} available_parallelism={} \
         profile={} rustc=\"{}\" commit={} LIGHTATOR_DEFAULT_WORKERS={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parallelism(),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        std::env::var("LIGHTATOR_DEFAULT_WORKERS").ok(),
    )
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Moves the main thread to the next of the process's CPUs at each step.
///
/// On the 2-vCPU host the benchmark was built on, one vCPU at times ran
/// the single-threaded kernel loop about 30 % slower than the other, for
/// minutes at a time, and a process stayed on the vCPU it started on, so
/// whole runs came out fast or slow at random. A loop that runs on one
/// thread therefore steps to the other CPU once per second (`taskset`,
/// from util-linux). Threads inherit the pin, so multi-threaded workloads
/// do not rotate: they use every CPU already.
struct CpuRotation {
    cpus: Vec<usize>,
    moves: usize,
    error: Option<String>,
}

impl CpuRotation {
    /// A rotation over the CPUs this process may run on, or none when
    /// `enabled` is false or there is only one.
    fn new(enabled: bool) -> Self {
        let (cpus, error) = match allowed_cpus() {
            Ok(cpus) => (cpus, None),
            Err(err) => (Vec::new(), Some(err.to_string())),
        };
        Self {
            cpus: if enabled { cpus } else { Vec::new() },
            moves: 0,
            error: error.filter(|_| enabled),
        }
    }

    fn step(&mut self) {
        if self.cpus.len() < 2 || self.error.is_some() {
            return;
        }
        let cpu = self.cpus[self.moves % self.cpus.len()];
        let status = std::process::Command::new("taskset")
            .args([
                "-p",
                "-c",
                &cpu.to_string(),
                &std::process::id().to_string(),
            ])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status();
        match status {
            Ok(status) if status.success() => self.moves += 1,
            Ok(status) => self.error = Some(format!("taskset {status}")),
            Err(err) => self.error = Some(format!("taskset: {err}")),
        }
    }

    fn note(&self) -> String {
        match &self.error {
            Some(err) => format!("main thread not rotated over CPUs: {err}"),
            None if self.cpus.len() < 2 => "main thread not rotated over CPUs".to_string(),
            None => format!(
                "main thread stepped {} times over CPUs {:?}",
                self.moves, self.cpus
            ),
        }
    }
}

/// The CPUs this process may run on (`Cpus_allowed_list`, such as `0-1,4`).
fn allowed_cpus() -> Res<Vec<usize>> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let list = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list line in /proc/self/status")?;
    let mut cpus = Vec::new();
    for range in list.trim().split(',') {
        let (first, last) = range.split_once('-').unwrap_or((range, range));
        cpus.extend(first.trim().parse::<usize>()?..=last.trim().parse::<usize>()?);
    }
    Ok(cpus)
}

/// What one run measured.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    /// Requests that returned an error or were refused.
    errors: u64,
    verification: Verification,
    metrics: Vec<Metric>,
    notes: Vec<String>,
    trace: Option<Trace>,
}

impl Outcome {
    /// Failed operations: errors plus outputs the verification rejected.
    fn failed(&self) -> u64 {
        self.errors + self.verification.mismatched()
    }

    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    fn print(&self) {
        if let Some(trace) = &self.trace {
            print!("{}", trace.summary());
        }
        for note in &self.notes {
            println!("note: {note}");
        }
        println!(
            "verification: {} requests compared, {} mismatched{}",
            self.verification.checked(),
            self.verification.mismatched(),
            self.verification
                .first_mismatch()
                .map(|m| format!(" (first: {m})"))
                .unwrap_or_default()
        );
        println!(
            "requests: {} attempted, {} failed",
            self.attempted,
            self.failed()
        );
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
    }
}

/// Per-layer totals of the recorded spans.
#[derive(Debug, Clone, Copy, Default)]
struct LayerTotal {
    spans: u64,
    total_ns: u64,
    /// Time covered by spans recorded with this layer as their parent.
    child_ns: u64,
}

/// Span recorder for the traced run: every call into a layer is timed by
/// the benchmark and folded into its layer's totals as it ends.
struct Trace {
    origin: Instant,
    totals: Vec<(&'static str, LayerTotal)>,
}

impl Trace {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            totals: Vec::new(),
        }
    }

    fn total_mut(&mut self, layer: &'static str) -> &mut LayerTotal {
        let index = match self.totals.iter().position(|(name, _)| *name == layer) {
            Some(index) => index,
            None => {
                self.totals.push((layer, LayerTotal::default()));
                self.totals.len() - 1
            }
        };
        &mut self.totals[index].1
    }

    /// Records one span of `layer` from `start` to `end`, nested in a span
    /// of `parent` when given.
    fn record(
        &mut self,
        layer: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        end: Instant,
    ) {
        let duration_ns = end.duration_since(start).as_nanos() as u64;
        let total = self.total_mut(layer);
        total.spans += 1;
        total.total_ns += duration_ns;
        if let Some(parent) = parent {
            self.total_mut(parent).child_ns += duration_ns;
        }
    }

    /// Times `f` as one span of `layer`.
    fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.record(layer, None, start, Instant::now());
        value
    }

    fn total(&self, layer: &str) -> LayerTotal {
        self.totals
            .iter()
            .find(|(name, _)| *name == layer)
            .map(|(_, t)| *t)
            .unwrap_or_default()
    }

    /// Mean span duration of `layer`, in nanoseconds, divided by `per`
    /// (calls or frames per span).
    fn mean_ns(&self, layer: &str, per: f64) -> f64 {
        let t = self.total(layer);
        t.total_ns as f64 / (t.spans as f64 * per)
    }

    fn summary(&self) -> String {
        let mut out = format!(
            "trace: per-layer host time over {:.3} s\n  {:<22} {:>10} {:>12} {:>12} {:>14}\n",
            self.origin.elapsed().as_secs_f64(),
            "layer",
            "spans",
            "total_ms",
            "self_ms",
            "mean_us"
        );
        for (layer, t) in &self.totals {
            out.push_str(&format!(
                "  {:<22} {:>10} {:>12.3} {:>12.3} {:>14.3}\n",
                layer,
                t.spans,
                t.total_ns as f64 / 1e6,
                t.total_ns.saturating_sub(t.child_ns) as f64 / 1e6,
                t.total_ns as f64 / 1e3 / t.spans.max(1) as f64
            ));
        }
        out
    }
}

/// Median of a non-empty sample set.
fn median(values: &[f64]) -> Res<f64> {
    Ok(stats::median(values).ok_or("no samples")?)
}

/// Times `f` `reps` times; returns the median in seconds and the last
/// result. Earlier results are dropped outside the timed region.
fn median_timed<T>(reps: usize, mut f: impl FnMut() -> Res<T>) -> Res<(f64, T)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let value = f()?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((median(&times)?, last.ok_or("zero repetitions")?))
}

/// One slice of set-ups: the mean set-up time of every `SETUP_SAMPLE` of
/// set-up time, and the number of set-ups.
type SetupSlice = Result<(Vec<f64>, u64), String>;

/// Runs set-ups for `SETUP_SLICE`, recording the mean set-up time of every
/// `SETUP_SAMPLE` of set-up time as one sample.
fn setup_slice(setup: &mut impl FnMut() -> Res<Duration>) -> Res<(Vec<f64>, u64)> {
    let (mut times, mut setups) = (Vec::new(), 0u64);
    let mut spent = Duration::ZERO;
    while spent < SETUP_SLICE {
        let (mut sample, mut count) = (Duration::ZERO, 0u32);
        while sample < SETUP_SAMPLE {
            sample += setup()?;
            count += 1;
        }
        times.push(sample.as_secs_f64() / f64::from(count));
        setups += u64::from(count);
        spent += sample;
    }
    Ok((times, setups))
}

/// Where the set-ups run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SetupThread {
    /// On the timed loop's thread, in its pauses.
    Loop,
    /// On a thread of their own, started before the workload's first
    /// request, while the loop waits. Its allocations come from a heap
    /// arena no other thread uses. A set-up that allocates large blocks
    /// then either always reuses freed memory or always faults in fresh
    /// pages; on the loop's thread, which one happened depended on how
    /// the loop's allocations interleaved with it.
    Own,
}

/// How a sampler reaches its set-ups: the set-up itself, or the channels
/// to the thread that runs it.
enum Runner<'a> {
    Loop(Box<dyn FnMut() -> Res<Duration> + 'a>),
    Own {
        slice_tx: mpsc::Sender<()>,
        slice_rx: mpsc::Receiver<SetupSlice>,
    },
}

/// Samples the set-up time in slices spread over a timed loop (see
/// `SETUP_EVERY`).
struct SetupSampler<'a> {
    runner: Runner<'a>,
    /// Stepped before each slice, so the set-ups run right after the move.
    rotation: CpuRotation,
    /// Mean set-up time of each sample.
    times: Vec<f64>,
    setups: u64,
    slices: u32,
    next: Duration,
    /// Loop time spent in slices, excluded from the loop's elapsed time.
    paused: Duration,
}

impl<'scope> SetupSampler<'scope> {
    /// A sampler whose set-ups run on `thread`; an own thread is started in
    /// `scope`. `setup` performs one set-up and returns how long it took,
    /// tearing down what it built outside the measured span. An own thread
    /// has allocated before this returns, so its arena is its own before
    /// the caller starts another thread.
    fn new(
        scope: &'scope std::thread::Scope<'scope, '_>,
        thread: SetupThread,
        rotation: CpuRotation,
        mut setup: impl FnMut() -> Res<Duration> + Send + 'scope,
    ) -> Res<Self> {
        let runner = match thread {
            SetupThread::Loop => Runner::Loop(Box::new(setup)),
            SetupThread::Own => {
                let (slice_tx, requests) = mpsc::channel::<()>();
                let (replies, slice_rx) = mpsc::channel::<SetupSlice>();
                scope.spawn(move || {
                    if replies.send(Ok((Vec::with_capacity(1), 0))).is_err() {
                        return;
                    }
                    while requests.recv().is_ok() {
                        let slice = setup_slice(&mut setup).map_err(|err| err.to_string());
                        if replies.send(slice).is_err() {
                            return;
                        }
                    }
                });
                slice_rx.recv()??;
                Runner::Own { slice_tx, slice_rx }
            }
        };
        Ok(Self {
            runner,
            rotation,
            times: Vec::new(),
            setups: 0,
            slices: 0,
            next: Duration::ZERO,
            paused: Duration::ZERO,
        })
    }

    /// Whether the loop, `loop_time` into its run, owes a slice.
    fn due(&self, loop_time: Duration) -> bool {
        loop_time >= self.next
    }

    /// Steps the CPU rotation, then runs one slice of set-ups and waits for
    /// it.
    fn sample(&mut self) -> Res<()> {
        let begin = Instant::now();
        self.rotation.step();
        let (times, setups) = match &mut self.runner {
            Runner::Loop(setup) => setup_slice(setup)?,
            Runner::Own { slice_tx, slice_rx } => {
                slice_tx.send(())?;
                slice_rx.recv()??
            }
        };
        self.times.extend(times);
        self.setups += setups;
        self.slices += 1;
        self.next += SETUP_EVERY;
        self.paused += begin.elapsed();
        Ok(())
    }
}

/// Reports `setup_s`: the median of the sampler's samples.
fn setup_metric(out: &mut Outcome, setup: &SetupSampler<'_>) -> Res<()> {
    out.metric("setup_s", median(&setup.times)?, "s");
    out.note(format!(
        "setup_s is the median of {} samples of {} set-ups timed in {} slices",
        setup.times.len(),
        setup.setups,
        setup.slices
    ));
    out.note(setup.rotation.note());
    Ok(())
}

/// When a closed loop stops.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// After this much loop time (set-up slices excluded).
    After(Duration),
    /// After this many requests.
    Requests(usize),
}

/// What a closed loop records besides its timings.
#[derive(Default)]
struct Taps<'t, 's> {
    /// Outputs of the first `keep` requests are kept for verification.
    keep: usize,
    trace: Option<&'t mut Trace>,
    setup: Option<&'t mut SetupSampler<'s>>,
}

impl Taps<'_, '_> {
    fn paused(&self) -> Duration {
        self.setup.as_ref().map_or(Duration::ZERO, |s| s.paused)
    }

    /// Runs a set-up slice if one is due; returns whether it did.
    fn sample_setup(&mut self, start: Instant) -> Res<bool> {
        let loop_time = start.elapsed() - self.paused();
        match self.setup.as_deref_mut() {
            Some(setup) if setup.due(loop_time) => setup.sample().map(|()| true),
            _ => Ok(false),
        }
    }

    fn setup_due(&self, start: Instant) -> bool {
        let loop_time = start.elapsed() - self.paused();
        self.setup.as_ref().is_some_and(|s| s.due(loop_time))
    }

    /// Whether a loop started at `start` that has issued `issued` requests
    /// should issue another.
    fn running(&self, stop: Stop, start: Instant, issued: usize) -> bool {
        match stop {
            Stop::After(duration) => start.elapsed() - self.paused() < duration,
            Stop::Requests(n) => issued < n,
        }
    }
}

/// The tail of one request population by `stats::windowed_tail`, with a
/// note saying which percentile over how many samples it is.
fn tail_ms(out: &mut Outcome, what: &str, latencies_ms: &[f64]) -> Res<f64> {
    let tail = stats::windowed_tail(latencies_ms).ok_or_else(|| {
        format!(
            "only {} {what} requests completed; a tail needs at least {}",
            latencies_ms.len(),
            stats::TAIL_MIN_BEYOND + 1
        )
    })?;
    out.note(format!(
        "{what} tail: median over {} windows of p{:.3} of {} samples ({} beyond)",
        tail.windows, tail.window.percentile, tail.window.samples, tail.window.beyond
    ));
    Ok(tail.value)
}

/// Host latency metrics of one timed loop: `request_p50_ms` is the mean of
/// the medians of the loop's one-second windows, the stretches between
/// set-up slices (see `CpuRotation`).
fn latency_metrics(out: &mut Outcome, timed: &LoopResult) -> Res<()> {
    let latencies_ms = &timed.latencies_ms;
    let p99 = tail_ms(out, "request", latencies_ms)?;
    let p50 = stats::window_median_mean(latencies_ms, &timed.windows).ok_or("no samples")?;
    out.metric("request_p50_ms", p50, "ms");
    out.note(format!(
        "request_p50_ms: mean of the window medians between {} set-up slices; \
         whole-run median {:.6} ms",
        timed.windows.len(),
        median(latencies_ms)?
    ));
    out.metric("request_p99_ms", p99, "ms");
    if let Some([q1, q2, q3]) = stats::quartiles(latencies_ms) {
        out.note(format!("request quartiles (ms): {q1:.3} {q2:.3} {q3:.3}"));
    }
    Ok(())
}

/// The output vector of a frame report: logits, or the acquired/filtered
/// frame.
fn report_output(report: &Report) -> Res<&[f32]> {
    Ok(report
        .logits()
        .or_else(|| report.frame().map(|(_, data)| data))
        .ok_or("report carries no output")?)
}

fn reference_id() -> BackendId {
    ElectronicReference::new(REFERENCE_DESIGN()).id()
}

fn with_reference(builder: lightator_core::platform::PlatformBuilder) -> Res<Platform> {
    Ok(builder
        .register_backend(Arc::new(ElectronicReference::new(REFERENCE_DESIGN())))
        .build()?)
}

// ---------------------------------------------------------------------------
// Session workloads: kernel_noisy and classify_linear
// ---------------------------------------------------------------------------

/// Sensor edge of `classify_linear`; CA halves it to 16×16 = 256 inputs.
const CLASSIFY_SENSOR: usize = 32;
/// Hidden width of the 256→128→10 classifier.
const CLASSIFY_HIDDEN: usize = 128;

/// The seeded classifier of `classify_linear`, also served by
/// `serve_mixed`.
fn classify_model(seed: u64) -> Res<lightator_nn::model::Sequential> {
    Ok(inputs::mlp(seed, CLASSIFY_SENSOR / 2, CLASSIFY_HIDDEN)?)
}

/// A closed loop of `Session::run` (batch 1) or `Session::run_batch` calls.
struct SessionCase {
    seed: u64,
    sensor: usize,
    workload: Workload,
    batch: usize,
    workers: usize,
    scenes: Vec<RgbFrame>,
    /// Requests run before timing starts (a fixed count, so the first timed
    /// request always executes at the same frame index).
    warmup: usize,
    /// Timed requests replayed by the verification pass.
    verified: usize,
    /// Timed requests whose outputs `ref_nrmse` is measured on (at least
    /// `verified`).
    measured: usize,
    /// Where `setup_s` is sampled. Classify set-up allocates the encoded
    /// weight bank, a few hundred KiB, and on the loop's thread took about
    /// 0.23 ms in some processes and 0.6 ms in others. Kernel set-up
    /// allocates little, and handing it to another thread made it noisier.
    setup_thread: SetupThread,
}

/// Outputs and timings of a closed request loop.
#[derive(Default)]
struct LoopResult {
    requests: u64,
    frames: u64,
    errors: u64,
    latencies_ms: Vec<f64>,
    /// Index into `latencies_ms` at which each set-up slice fell.
    windows: Vec<usize>,
    elapsed_s: f64,
    /// Per kept request, one output vector per frame.
    kept: Vec<Vec<Vec<f32>>>,
}

impl LoopResult {
    fn frames_per_s(&self) -> f64 {
        self.frames as f64 / self.elapsed_s
    }

    /// Adds the counts and timings of a later block of the same loop.
    fn absorb(&mut self, block: LoopResult) {
        self.requests += block.requests;
        self.frames += block.frames;
        self.errors += block.errors;
        self.latencies_ms.extend(block.latencies_ms);
        self.elapsed_s += block.elapsed_s;
    }
}

/// The untraced (`false`) and traced (`true`) blocks of a traced run of
/// `args`, in order. Successive pairs swap which block comes first, so a
/// block that starts cold (after a CPU move, say) is as often traced as
/// not.
fn trace_blocks(args: &Args) -> Vec<bool> {
    let per_kind = args.seconds as f64 * TRACED_SHARE / 2.0;
    let pairs = (per_kind / TRACE_BLOCK.as_secs_f64()).ceil().max(1.0) as usize;
    (0..pairs)
        .flat_map(|pair| [pair % 2 == 1, pair % 2 == 0])
        .collect()
}

impl SessionCase {
    fn new(name: WorkloadName, seed: u64) -> Res<Self> {
        Ok(match name {
            WorkloadName::KernelNoisy => Self {
                seed,
                sensor: 64,
                workload: Workload::ImageKernel {
                    kernel: ImageKernel::SobelX,
                },
                batch: 1,
                workers: 1,
                scenes: inputs::noise_scenes(seed, 64, 64)?,
                warmup: 64,
                verified: 128,
                measured: 128,
                setup_thread: SetupThread::Loop,
            },
            WorkloadName::ClassifyLinear => Self {
                seed,
                sensor: CLASSIFY_SENSOR,
                workload: Workload::Classify {
                    model: classify_model(seed)?,
                },
                batch: 8,
                workers: pinned_parallelism(),
                scenes: inputs::shape_scenes(seed, 512, CLASSIFY_SENSOR)?,
                warmup: 4,
                verified: 16,
                measured: 64,
                setup_thread: SetupThread::Own,
            },
            WorkloadName::ServeMixed => return Err("serve_mixed is not a session workload".into()),
        })
    }

    /// The paper-default platform (noise and CA on) at this case's sensor
    /// size, with every worker count pinned.
    fn builder(&self, workers: usize) -> lightator_core::platform::PlatformBuilder {
        Platform::builder()
            .sensor_resolution(self.sensor, self.sensor)
            .compressive_acquisition(CaConfig::default())
            .seed(self.seed)
            .workers(workers)
    }

    fn request(&self, index: usize) -> &[RgbFrame] {
        let chunks = self.scenes.len() / self.batch;
        let chunk = index % chunks;
        &self.scenes[chunk * self.batch..(chunk + 1) * self.batch]
    }

    fn run(&self, session: &mut Session, index: usize) -> Result<Vec<Report>, Box<dyn Error>> {
        let scenes = self.request(index);
        Ok(if self.batch == 1 {
            vec![session.run(&scenes[0])?]
        } else {
            session.run_batch(scenes)?
        })
    }

    /// Set-up: platform build plus `Session::open` (plan compile, the
    /// performance model and `verify_plan`).
    fn open(&self) -> Res<Session> {
        let platform = self.builder(self.workers).build()?;
        let mut session = platform.session(self.workload.clone())?;
        session.set_workers(self.workers);
        Ok(session)
    }

    /// Runs requests `first..` until `stop`.
    fn drive(
        &self,
        session: &mut Session,
        first: usize,
        stop: Stop,
        mut taps: Taps<'_, '_>,
    ) -> Res<LoopResult> {
        let mut out = LoopResult::default();
        let start = Instant::now();
        let mut index = first;
        while taps.running(stop, start, index - first) {
            if taps.sample_setup(start)? {
                out.windows.push(out.latencies_ms.len());
                continue;
            }
            let t0 = Instant::now();
            let result = self.run(session, index);
            let t1 = Instant::now();
            if let Some(trace) = taps.trace.as_deref_mut() {
                trace.record("session.request", None, t0, t1);
            }
            out.requests += 1;
            out.latencies_ms
                .push(t1.duration_since(t0).as_secs_f64() * 1e3);
            let outputs = match result {
                Ok(reports) => {
                    out.frames += reports.len() as u64;
                    reports
                        .iter()
                        .map(|r| report_output(r).map(<[f32]>::to_vec))
                        .collect::<Res<_>>()
                        .unwrap_or_default()
                }
                Err(err) => {
                    out.errors += 1;
                    eprintln!("request {index} failed: {err}");
                    Vec::new()
                }
            };
            keep_at(&mut out.kept, taps.keep, index - first, outputs);
            index += 1;
        }
        out.elapsed_s = (start.elapsed() - taps.paused()).as_secs_f64();
        Ok(out)
    }

    /// The verification pass: replays the first `verified` timed requests
    /// one frame at a time on a fresh single-worker session positioned at
    /// the same frame index and compares the outputs bit for bit; then
    /// measures the first `measured` requests' photonic outputs against the
    /// fp32 electronic reference (replaying any the timed loop did not
    /// reach, so the figure never depends on run length).
    fn verify(&self, start_frame: u64, timed: &LoopResult, out: &mut Outcome) -> Res<()> {
        let platform = with_reference(self.builder(1))?;
        let mut sequential = platform.session(self.workload.clone())?;
        sequential.set_workers(1);
        let mut electronic = platform.session_on(self.workload.clone(), &reference_id())?;
        let mut nrmse = Nrmse::default();
        let mut perf = None;
        for r in 0..self.measured {
            let kept = timed.kept.get(r);
            let mut replayed = Vec::new();
            for (j, scene) in self.request(self.warmup + r).iter().enumerate() {
                let photonic = match kept.and_then(|k| k.get(j)) {
                    Some(got) if r >= self.verified => got.clone(),
                    _ => {
                        sequential.seek_frame(start_frame + (r * self.batch + j) as u64);
                        let report = sequential.run(scene)?;
                        perf.get_or_insert(report.perf.clone());
                        let output = report_output(&report)?.to_vec();
                        replayed.push(output.clone());
                        output
                    }
                };
                nrmse.add(report_output(&electronic.run(scene)?)?, &photonic)?;
            }
            if let Some(kept) = kept.filter(|_| r < self.verified) {
                out.verification
                    .check(&format!("request {r}"), &replayed, kept);
            }
        }
        let perf = perf.ok_or("no request verified")?;
        out.metric("sim_kfps_per_w", perf.kfps_per_watt(), "KFPS/W");
        out.metric("sim_frame_us", perf.frame_latency.us(), "sim_us");
        out.metric(
            "ref_nrmse",
            nrmse.value().ok_or("the reference output is all zero")?,
            "ratio",
        );
        Ok(())
    }

    fn end_to_end(&self, args: &Args) -> Res<Outcome> {
        let mut out = Outcome::default();
        let (start_frame, timed) = std::thread::scope(|scope| -> Res<_> {
            let rotation = CpuRotation::new(self.workers == 1);
            let mut setup = SetupSampler::new(scope, self.setup_thread, rotation, || {
                let start = Instant::now();
                let session = self.open()?;
                let took = start.elapsed();
                drop(session);
                Ok(took)
            })?;
            let mut session = self.open()?;
            self.drive(
                &mut session,
                0,
                Stop::Requests(self.warmup),
                Taps::default(),
            )?;
            let start_frame = session.next_frame_index();
            let timed = self.drive(
                &mut session,
                self.warmup,
                Stop::After(Duration::from_secs(args.seconds)),
                Taps {
                    keep: self.measured,
                    trace: None,
                    setup: Some(&mut setup),
                },
            )?;
            setup_metric(&mut out, &setup)?;
            Ok((start_frame, timed))
        })?;
        out.attempted = timed.requests;
        out.errors = timed.errors;
        out.metric("frames_per_s", timed.frames_per_s(), "frames/s");
        latency_metrics(&mut out, &timed)?;
        out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
        self.verify(start_frame, &timed, &mut out)?;
        out.note(format!(
            "{} frames in {:.3} s; batch {}, workers {}",
            timed.frames, timed.elapsed_s, self.batch, self.workers
        ));
        Ok(out)
    }

    fn layers(&self, args: &Args) -> Res<Outcome> {
        let mut out = Outcome::default();
        let mut trace = Trace::new();
        let platform = trace.span("setup.platform", || self.builder(self.workers).build())?;
        let mut session = trace.span("setup.session_open", || {
            platform.session(self.workload.clone())
        })?;
        session.set_workers(self.workers);
        self.drive(
            &mut session,
            0,
            Stop::Requests(self.warmup),
            Taps::default(),
        )?;
        let (mut untraced, mut traced) = (LoopResult::default(), LoopResult::default());
        let mut next = self.warmup;
        let mut rotation = CpuRotation::new(self.workers == 1);
        for (i, traced_block) in trace_blocks(args).into_iter().enumerate() {
            // Each stay on a CPU holds one pair in each order.
            if i % 4 == 0 {
                rotation.step();
            }
            let taps = Taps {
                trace: traced_block.then_some(&mut trace),
                ..Taps::default()
            };
            let block = self.drive(&mut session, next, Stop::After(TRACE_BLOCK), taps)?;
            next += block.requests as usize;
            if traced_block {
                traced.absorb(block);
            } else {
                untraced.absorb(block);
            }
        }
        out.attempted = untraced.requests + traced.requests;
        out.errors = untraced.errors + traced.errors;
        let stats = session.plan_stats();

        let probes = LayerProbes {
            platform: &platform,
            workload: &self.workload,
            scenes: &self.scenes,
            batch: self.batch,
            slice: Duration::from_secs_f64(args.seconds as f64 * 0.05),
        };
        probes.run(&mut trace, &mut rotation, &mut out)?;
        out.note(rotation.note());
        out.metric(
            "plan.hit_ratio",
            stats.cache_hits as f64 / (stats.cache_hits + stats.encodes).max(1) as f64,
            "ratio",
        );
        out.metric(
            "trace.overhead_frac",
            1.0 - traced.frames_per_s() / untraced.frames_per_s(),
            "ratio",
        );
        for (name, unit) in SERVING_ONLY_METRICS {
            out.metric(name, 0.0, unit);
        }
        out.note(
            "stream.* and serve.* are placeholders reading 0: this workload runs neither layer",
        );
        out.trace = Some(trace);
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Layer probes shared by every traced run
// ---------------------------------------------------------------------------

/// Layers only `serve_mixed` runs. A traced result line names every
/// per-layer metric, so the session workloads fill these with placeholder
/// zeros.
const SERVING_ONLY_METRICS: [(&str, &str); 14] = [
    ("stream.gate_us_per_frame", "us"),
    ("stream.skip_ratio", "ratio"),
    ("serve.submit_us", "us"),
    ("serve.acquire.p50_ms", "ms"),
    ("serve.acquire.p99_ms", "ms"),
    ("serve.image_kernel.p50_ms", "ms"),
    ("serve.image_kernel.p99_ms", "ms"),
    ("serve.classify.p50_ms", "ms"),
    ("serve.classify.p99_ms", "ms"),
    ("serve.video_stream.p50_ms", "ms"),
    ("serve.video_stream.p99_ms", "ms"),
    ("serve.batch_mean", "frames"),
    ("serve.stolen", "count"),
    ("serve.rejected", "count"),
];

/// Work one frame executes on the optical core, derived from the layer
/// shapes and the encoded rows.
#[derive(Debug, Clone, Copy, Default)]
struct FrameWork {
    segments: u64,
    row_loads: u64,
    draws: u64,
}

/// Per-frame executed work of `plan`: one segment per arm-sized MAC, one
/// row load per output channel on the weight-stationary conv path and per
/// segment otherwise, and per segment one intensity draw per arm lane, one
/// weight draw per non-zero weight and one detection draw (each only when
/// its noise channel is on).
fn executed_work(plan: &CompiledPlan, noise: &NoiseConfig, lanes: usize) -> Res<FrameWork> {
    let model = plan.model().ok_or("plan has no optical model")?;
    let mut shape = model.input_shape().to_vec();
    let mut work = FrameWork::default();
    let mut weight_draws = 0u64;
    for (layer, encoding) in model.layers().iter().zip(plan.encodings()) {
        let out_shape = layer.output_shape(&shape)?;
        if let Some(encoded) = encoding {
            let nnz = |row: &[f64]| row.iter().filter(|w| **w != 0.0).count() as u64;
            match layer {
                LayerNode::Conv2d(conv) => {
                    let strides = (out_shape[1] * out_shape[2]) as u64;
                    let row_len = conv.in_channels() * conv.kernel() * conv.kernel();
                    let calls = row_len.div_ceil(lanes) as u64;
                    let items = conv.out_channels() as u64 * strides;
                    work.segments += items * calls;
                    work.row_loads += if calls == 1 {
                        conv.out_channels() as u64
                    } else {
                        items * calls
                    };
                    weight_draws += encoded
                        .rows()
                        .iter()
                        .map(|row| nnz(row) * strides)
                        .sum::<u64>();
                }
                LayerNode::Linear(linear) => {
                    let calls = linear.in_features().div_ceil(lanes) as u64;
                    work.segments += linear.out_features() as u64 * calls;
                    work.row_loads += linear.out_features() as u64 * calls;
                    weight_draws += encoded.rows().iter().map(|row| nnz(row)).sum::<u64>();
                }
                _ => return Err("encoded weights on a layer without weights".into()),
            }
        }
        shape = out_shape;
    }
    let on = |sigma: f64| u64::from(sigma > 0.0);
    work.draws = work.segments * lanes as u64 * on(noise.vcsel_relative_sigma)
        + weight_draws * on(noise.weight_sigma)
        + work.segments * on(noise.detector_relative_sigma);
    Ok(work)
}

/// One MAC's operands: an encoded weight chunk and quantized activations.
struct Segment {
    weights: Vec<f64>,
    activations: Vec<f64>,
}

/// The first weighted layer's MAC operands for one acquired frame, in the
/// order the executor issues them.
fn first_layer_segments(plan: &CompiledPlan, input: &Tensor, lanes: usize) -> Res<Vec<Segment>> {
    let model = plan.model().ok_or("plan has no optical model")?;
    let bits = plan.schedule().for_layer(0).activation_bits;
    let scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
    let quantize = |x: f32| {
        if scale == 0.0 {
            0.0
        } else {
            f64::from(quantize_unsigned(x.max(0.0), scale, bits) / scale).clamp(0.0, 1.0)
        }
    };
    let mut shape = model.input_shape().to_vec();
    let mut value = input.clone();
    for (layer, encoding) in model.layers().iter().zip(plan.encodings()) {
        let Some(encoded) = encoding else {
            shape = layer.output_shape(&shape)?;
            value = value.reshaped(&shape)?;
            continue;
        };
        let mut segments = Vec::new();
        match layer {
            LayerNode::Conv2d(conv) => {
                let (in_c, in_h, in_w) = (shape[0], shape[1], shape[2]);
                let (k, stride, pad) = (conv.kernel(), conv.stride(), conv.padding());
                let out = layer.output_shape(&shape)?;
                for row in encoded.rows() {
                    for oh in 0..out[1] {
                        for ow in 0..out[2] {
                            let mut patch = Vec::with_capacity(in_c * k * k);
                            for ic in 0..in_c {
                                for kh in 0..k {
                                    for kw in 0..k {
                                        let ih = (oh * stride + kh) as isize - pad as isize;
                                        let iw = (ow * stride + kw) as isize - pad as isize;
                                        let inside = ih >= 0
                                            && iw >= 0
                                            && (ih as usize) < in_h
                                            && (iw as usize) < in_w;
                                        patch.push(if inside {
                                            quantize(
                                                value.data()[(ic * in_h + ih as usize) * in_w
                                                    + iw as usize],
                                            )
                                        } else {
                                            0.0
                                        });
                                    }
                                }
                            }
                            for (w, a) in row.chunks(lanes).zip(patch.chunks(lanes)) {
                                segments.push(Segment {
                                    weights: w.to_vec(),
                                    activations: a.to_vec(),
                                });
                            }
                        }
                    }
                }
            }
            LayerNode::Linear(_) => {
                let activations: Vec<f64> = value.data().iter().map(|&x| quantize(x)).collect();
                for row in encoded.rows() {
                    for (w, a) in row.chunks(lanes).zip(activations.chunks(lanes)) {
                        segments.push(Segment {
                            weights: w.to_vec(),
                            activations: a.to_vec(),
                        });
                    }
                }
            }
            _ => return Err("encoded weights on a layer without weights".into()),
        }
        return Ok(segments);
    }
    Err("plan has no weighted layer".into())
}

/// Runs `step` repeatedly for about `slice`, at least once.
fn for_slice(slice: Duration, mut step: impl FnMut() -> Res<()>) -> Res<()> {
    let start = Instant::now();
    loop {
        step()?;
        if start.elapsed() >= slice {
            return Ok(());
        }
    }
}

/// Layer-by-layer probes on one workload's own operands.
struct LayerProbes<'a> {
    platform: &'a Platform,
    workload: &'a Workload,
    scenes: &'a [RgbFrame],
    batch: usize,
    /// Time each timed probe runs for.
    slice: Duration,
}

impl LayerProbes<'_> {
    /// Runs every probe, stepping `rotation` before each round of the
    /// executor, row-load and MAC probes.
    fn run(&self, trace: &mut Trace, rotation: &mut CpuRotation, out: &mut Outcome) -> Res<()> {
        let config = self.platform.config();
        let seed = config.seed;

        // Plan compile and the analytic model (set-up layers).
        let (compile_s, mut plan) = median_timed(MODEL_REPS, || {
            Ok(trace.span("plan.compile", || {
                CompiledPlan::compile(self.workload, config, seed)
            })?)
        })?;
        out.metric("plan.compile_ms", compile_s * 1e3, "ms");
        let spec = performance_spec(self.workload, config)?;
        let (simulate_s, _) = median_timed(MODEL_REPS, || {
            Ok(trace.span("sim.simulate", || self.platform.simulate(&spec))?)
        })?;
        out.metric("sim.simulate_ms", simulate_s * 1e3, "ms");
        let mapper = HardwareMapper::new(config.hardware.geometry)?;
        let mappings = trace.span("mapping.map_network", || mapper.map_network(spec.layers()))?;
        let (modelled_segments, reloads) = mappings
            .iter()
            .flatten()
            .filter(|m| !m.uses_ca_banks)
            .fold((0usize, 0usize), |(s, r), m| {
                (s + m.total_strides, r + m.weight_reloads)
            });
        out.metric(
            "mapping.segments_per_frame",
            modelled_segments as f64,
            "count",
        );
        out.metric("mapping.reload_passes", reloads as f64, "count");

        // Acquisition: sensor + CA through the session's public call.
        let session = self.platform.session(self.workload.clone())?;
        let mut acquired = Vec::with_capacity(self.scenes.len());
        for scene in self.scenes {
            acquired.push(trace.span("acquire", || session.acquire(scene))?);
        }
        let mut next = 0usize;
        for_slice(self.slice, || {
            let scene = &self.scenes[next % self.scenes.len()];
            black_box(trace.span("acquire", || session.acquire(scene))?);
            next += 1;
            Ok(())
        })?;
        out.metric("acquire.us_per_frame", trace.mean_ns("acquire", 1e3), "us");

        // Executor on a plan compiled here, single worker, checked bit-equal
        // to a sequential session from frame 0.
        let noise = config.hardware.noise;
        let mut executor = PhotonicExecutor::new(config.schedule, noise, seed)?;
        executor.set_workers(1);
        let mut reference = self.platform.session(self.workload.clone())?;
        reference.set_workers(1);
        let batches: Vec<&[Tensor]> = acquired.chunks(self.batch).collect();
        let scene_batches: Vec<&[RgbFrame]> = self.scenes.chunks(self.batch).collect();
        let checked = batches
            .iter()
            .zip(&scene_batches)
            .take(EXEC_CHECKED_FRAMES.div_ceil(self.batch));
        for (b, (inputs, scenes)) in checked.enumerate() {
            let outputs = executor.forward_batch_planned(&mut plan, inputs)?;
            let expected = scenes
                .iter()
                .map(|scene| Ok(report_output(&reference.run(scene)?)?.to_vec()))
                .collect::<Res<Vec<_>>>()?;
            let got: Vec<Vec<f32>> = outputs.iter().map(|o| o.data().to_vec()).collect();
            out.verification
                .check(&format!("executor batch {b} vs session"), &expected, &got);
        }

        // The executor, the row load and the MAC (noisy and ideal) on this
        // workload's own rows and acquired activations, timed in
        // alternating rounds.
        let lanes = PhotonicMacUnit::new(noise, seed)?.segment_length();
        let segments = first_layer_segments(&plan, &acquired[0], lanes)?;
        let mut loader = PhotonicMacUnit::new(noise, seed)?;
        let mut macs = Vec::new();
        for (layer, unit_noise) in [("oc.mac", noise), ("oc.mac_ideal", NoiseConfig::ideal())] {
            let mut unit = PhotonicMacUnit::new(unit_noise, seed)?;
            unit.begin_frame(0);
            macs.push((layer, unit, 0usize, None::<&[f64]>));
        }
        let (mut b, mut l) = (0usize, 0usize);
        let round = self.slice / PROBE_ROUNDS;
        for _ in 0..PROBE_ROUNDS {
            rotation.step();
            for_slice(round * 2, || {
                let inputs = batches[b % batches.len()];
                black_box(
                    trace.span("exec", || executor.forward_batch_planned(&mut plan, inputs))?,
                );
                b += 1;
                Ok(())
            })?;
            for_slice(round, || {
                let start = Instant::now();
                for _ in 0..MACS_PER_SPAN {
                    loader.load_row(&segments[l % segments.len()].weights)?;
                    l += 1;
                }
                trace.record("oc.load_row", None, start, Instant::now());
                Ok(())
            })?;
            for (layer, unit, i, loaded) in &mut macs {
                for_slice(round, || {
                    let segment = &segments[*i % segments.len()];
                    if *loaded != Some(segment.weights.as_slice()) {
                        unit.load_row(&segment.weights)?;
                        *loaded = Some(segment.weights.as_slice());
                    }
                    let start = Instant::now();
                    for _ in 0..MACS_PER_SPAN {
                        black_box(unit.mac_loaded(&segment.activations)?);
                    }
                    trace.record(layer, None, start, Instant::now());
                    *i += 1;
                    Ok(())
                })?;
            }
        }
        let exec_us = trace.mean_ns("exec", 1e3 * self.batch as f64);
        out.metric("exec.us_per_frame", exec_us, "us");
        let load_row_ns = trace.mean_ns("oc.load_row", MACS_PER_SPAN as f64);
        out.metric("oc.load_row_ns", load_row_ns, "ns");
        let mac_ns = trace.mean_ns("oc.mac", MACS_PER_SPAN as f64);
        out.metric("oc.mac_ns", mac_ns, "ns");
        out.metric(
            "oc.mac_ideal_ns",
            trace.mean_ns("oc.mac_ideal", MACS_PER_SPAN as f64),
            "ns",
        );
        let work = executed_work(&plan, &noise, lanes)?;
        out.metric("oc.segments_per_frame", work.segments as f64, "count");
        out.metric("oc.row_loads_per_frame", work.row_loads as f64, "count");
        // The probes time each call on its own, so their sum can exceed
        // the executor's time when gather and quantize are cheap; the
        // remainder is then reported as 0 and the raw difference noted.
        let other_us =
            exec_us - (work.segments as f64 * mac_ns + work.row_loads as f64 * load_row_ns) / 1e3;
        out.metric("exec.other_us_per_frame", other_us.max(0.0), "us");
        out.note(format!(
            "exec.other_us_per_frame before clamping at 0: {other_us:.3} us"
        ));

        // Noise: one keyed Gaussian draw.
        let channels = [
            NoiseChannel::Intensity,
            NoiseChannel::Weight,
            NoiseChannel::Detection,
        ];
        let mut frame = 0u64;
        for_slice(self.slice, || {
            let rng = CounterRng::new(seed, frame);
            let start = Instant::now();
            let mut sum = 0.0;
            for element in 0..DRAWS_PER_SPAN as u64 {
                sum += rng.standard_normal(channels[(element % 3) as usize], element);
            }
            trace.record("noise.draw", None, start, Instant::now());
            black_box(sum);
            frame += 1;
            Ok(())
        })?;
        out.metric(
            "noise.draw_ns",
            trace.mean_ns("noise.draw", DRAWS_PER_SPAN as f64),
            "ns",
        );
        out.metric("noise.draws_per_frame", work.draws as f64, "count");

        out.note(format!(
            "executed {} segments/frame vs modelled {modelled_segments}",
            work.segments
        ));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// Sensor edge of the serving platform, the same as `classify_linear`'s.
const SERVE_SENSOR: usize = CLASSIFY_SENSOR;
const SERVE_SCENES: usize = 48;
const SERVE_VIDEO_FRAMES: usize = 128;
/// Warm-up and verified requests, both whole blocks of the mix
/// (`inputs::MIX_BLOCK`), so the verified window's composition is exact.
const SERVE_WARMUP: usize = 60;
const SERVE_VERIFIED: usize = 200;

fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: 4,
        delta_threshold: 0.05,
    }
}

struct ServeCase {
    seed: u64,
    scenes: Vec<RgbFrame>,
    video: Vec<RgbFrame>,
    workloads: Vec<(RequestKind, Workload)>,
}

/// One finished serving request.
struct Completion {
    id: usize,
    response: Result<Response, lightator_serve::ServeError>,
    done: Instant,
}

/// A request the generator has in flight.
struct InFlight {
    kind: RequestKind,
    submitted: Instant,
}

#[derive(Default)]
struct ServeLoop {
    base: LoopResult,
    per_kind_ms: [Vec<f64>; 4],
}

impl ServeLoop {
    /// Adds the counts and timings of a later block of the same loop.
    fn absorb(&mut self, block: ServeLoop) {
        self.base.absorb(block.base);
        for (all, more) in self.per_kind_ms.iter_mut().zip(block.per_kind_ms) {
            all.extend(more);
        }
    }
}

impl ServeCase {
    fn new(seed: u64) -> Res<Self> {
        let kernel = ImageKernel::SobelX;
        Ok(Self {
            seed,
            scenes: inputs::noise_scenes(seed, SERVE_SCENES, SERVE_SENSOR)?,
            video: inputs::video(seed, SERVE_SENSOR, SERVE_VIDEO_FRAMES)?,
            workloads: vec![
                (RequestKind::Acquire, Workload::Acquire),
                (RequestKind::ImageKernel, Workload::ImageKernel { kernel }),
                (
                    RequestKind::Classify,
                    Workload::Classify {
                        model: classify_model(seed)?,
                    },
                ),
                (
                    RequestKind::VideoStream,
                    Workload::VideoStream {
                        kernel,
                        stream: stream_config(),
                    },
                ),
            ],
        })
    }

    fn builder(&self) -> lightator_core::platform::PlatformBuilder {
        Platform::builder()
            .sensor_resolution(SERVE_SENSOR, SERVE_SENSOR)
            .compressive_acquisition(CaConfig::default())
            .seed(self.seed)
            .workers(1)
    }

    fn workload(&self, kind: RequestKind) -> Workload {
        self.workloads[kind.index()].1.clone()
    }

    fn mix(&self) -> Mix {
        Mix::new(self.seed, self.scenes.len(), self.video.len())
    }

    fn server(&self) -> Res<Server> {
        let mut builder = Server::builder(self.builder().build()?)
            .shards(pinned_parallelism())
            .workers(1)
            .steal(true)
            .slo(SloConfig {
                target_queue_wait: Time::from_us(20.0),
                min_batch: 1,
                max_batch: 8,
            })
            .interactive_weight(4)
            .queue_depth(4 * SERVE_WINDOW);
        for (_, workload) in &self.workloads {
            builder = builder.workload(workload.clone());
        }
        Ok(builder.build()?)
    }

    fn request(&self, r: &MixRequest) -> Request {
        let kernel = ImageKernel::SobelX;
        let frame = || self.scenes[r.input].clone();
        match r.kind {
            RequestKind::Acquire => Request::Acquire { frame: frame() },
            RequestKind::ImageKernel => Request::ImageKernel {
                kernel,
                frame: frame(),
            },
            RequestKind::Classify => Request::Classify { frame: frame() },
            RequestKind::VideoStream => Request::VideoStream {
                kernel,
                frames: self.video[r.input..r.input + STREAM_FRAMES].to_vec(),
            },
        }
    }

    /// The closed loop: one generator thread keeps `SERVE_WINDOW` requests
    /// outstanding; as many waiter threads block on the pending responses
    /// so each completion is timed when it arrives. A due set-up slice
    /// first lets the window drain, so no request waits on it.
    fn drive(
        &self,
        server: &Server,
        mix: &mut Mix,
        stop: Stop,
        mut taps: Taps<'_, '_>,
    ) -> Res<ServeLoop> {
        let mut out = ServeLoop::default();
        let (job_tx, job_rx) = mpsc::channel::<(usize, Pending)>();
        let job_rx = Mutex::new(job_rx);
        let (done_tx, done_rx) = mpsc::channel::<Completion>();
        let start = Instant::now();
        std::thread::scope(|scope| -> Res<()> {
            for _ in 0..SERVE_WINDOW {
                let (job_rx, done_tx) = (&job_rx, done_tx.clone());
                scope.spawn(move || loop {
                    let job = match job_rx.lock() {
                        Ok(rx) => rx.recv(),
                        Err(_) => return,
                    };
                    let Ok((id, pending)) = job else { return };
                    let response = pending.wait_response();
                    let done = Instant::now();
                    if done_tx.send(Completion { id, response, done }).is_err() {
                        return;
                    }
                });
            }
            drop(done_tx);
            let result = (|| -> Res<()> {
                let mut in_flight: Vec<Option<InFlight>> = Vec::new();
                let mut outstanding = 0usize;
                loop {
                    let running = taps.running(stop, start, in_flight.len());
                    let setup_due = running && taps.setup_due(start);
                    if setup_due && outstanding == 0 {
                        taps.sample_setup(start)?;
                        out.base.windows.push(out.base.latencies_ms.len());
                        continue;
                    }
                    if running && !setup_due && outstanding < SERVE_WINDOW {
                        let r = mix.next().ok_or("request mix ended")?;
                        let id = in_flight.len();
                        let request = self.request(&r);
                        let lane = if r.interactive {
                            Priority::Interactive
                        } else {
                            Priority::Batch
                        };
                        let submitted = Instant::now();
                        let admitted = server.submit_with_priority(request, lane);
                        if let Some(trace) = taps.trace.as_deref_mut() {
                            trace.record(
                                "serve.submit",
                                Some("serve.request"),
                                submitted,
                                Instant::now(),
                            );
                        }
                        out.base.requests += 1;
                        match admitted {
                            Ok(pending) => {
                                in_flight.push(Some(InFlight {
                                    kind: r.kind,
                                    submitted,
                                }));
                                job_tx.send((id, pending))?;
                                outstanding += 1;
                            }
                            Err(err) => {
                                in_flight.push(None);
                                out.base.errors += 1;
                                keep_at(&mut out.base.kept, taps.keep, id, Vec::new());
                                eprintln!("request {id} refused: {err}");
                            }
                        }
                        continue;
                    }
                    if outstanding == 0 {
                        return Ok(());
                    }
                    let c = done_rx.recv()?;
                    outstanding -= 1;
                    let flight = in_flight
                        .get_mut(c.id)
                        .and_then(Option::take)
                        .ok_or("completion for an unknown request")?;
                    if let Some(trace) = taps.trace.as_deref_mut() {
                        trace.record("serve.request", None, flight.submitted, c.done);
                    }
                    let ms = c.done.duration_since(flight.submitted).as_secs_f64() * 1e3;
                    out.base.latencies_ms.push(ms);
                    out.per_kind_ms[flight.kind.index()].push(ms);
                    let outputs = match c.response {
                        Ok(Response::Frame(report)) => vec![report_output(&report)?.to_vec()],
                        Ok(Response::Stream(report)) => {
                            report.frames.into_iter().map(|f| f.data).collect()
                        }
                        Err(err) => {
                            out.base.errors += 1;
                            eprintln!("request {} failed: {err}", c.id);
                            Vec::new()
                        }
                    };
                    out.base.frames += outputs.len() as u64;
                    keep_at(&mut out.base.kept, taps.keep, c.id, outputs);
                }
            })();
            drop(job_tx);
            result
        })?;
        out.base.elapsed_s = (start.elapsed() - taps.paused()).as_secs_f64();
        Ok(out)
    }

    /// Replays the first `SERVE_VERIFIED` timed requests on one sequential
    /// session per request kind, each positioned at the request's ticket
    /// (its frame index within its workload group), and runs the kernel and
    /// classify requests on the fp32 reference. Returns the modelled frames
    /// and energy (joules) and latency (µs) of the replayed requests.
    fn verify(&self, timed: &ServeLoop, out: &mut Outcome) -> Res<()> {
        let platform = with_reference(self.builder())?;
        let mut sessions = Vec::new();
        let mut references = Vec::new();
        for kind in RequestKind::ALL {
            sessions.push(platform.session(self.workload(kind))?);
            references.push(match kind {
                RequestKind::ImageKernel | RequestKind::Classify => {
                    Some(platform.session_on(self.workload(kind), &reference_id())?)
                }
                _ => None,
            });
        }
        let mut tickets = [0u64; 4];
        let mut nrmse = Nrmse::default();
        let (mut frames, mut energy_j, mut latency_us) = (0u64, 0.0f64, 0.0f64);
        for (id, r) in self.mix().take(SERVE_WARMUP + SERVE_VERIFIED).enumerate() {
            let k = r.kind.index();
            let ticket = tickets[k];
            tickets[k] += if r.kind == RequestKind::VideoStream {
                STREAM_FRAMES as u64
            } else {
                1
            };
            let Some(timed_index) = id.checked_sub(SERVE_WARMUP) else {
                continue;
            };
            let session = &mut sessions[k];
            session.seek_frame(ticket);
            let outputs: Vec<Vec<f32>> = match self.request(&r) {
                Request::VideoStream { frames: video, .. } => {
                    let report: StreamReport = session.run_stream(&video)?;
                    energy_j += report.energy.joules();
                    latency_us += report.sim_time.us();
                    report.frames.into_iter().map(|f| f.data).collect()
                }
                Request::Acquire { frame }
                | Request::Classify { frame }
                | Request::ImageKernel { frame, .. } => {
                    let report = session.run(&frame)?;
                    energy_j += report.energy().joules();
                    latency_us += report.latency().us();
                    if let Some(reference) = references[k].as_mut() {
                        nrmse.add(
                            report_output(&reference.run(&frame)?)?,
                            report_output(&report)?,
                        )?;
                    }
                    vec![report_output(&report)?.to_vec()]
                }
            };
            frames += outputs.len() as u64;
            if let Some(kept) = timed.base.kept.get(timed_index) {
                let what = format!("request {timed_index} ({})", r.kind.name());
                out.verification.check(&what, &outputs, kept);
            }
        }
        out.metric("sim_kfps_per_w", frames as f64 / energy_j / 1e3, "KFPS/W");
        out.metric("sim_frame_us", latency_us / frames as f64, "sim_us");
        out.metric(
            "ref_nrmse",
            nrmse.value().ok_or("the reference output is all zero")?,
            "ratio",
        );
        Ok(())
    }
}

/// Stores the outputs of request `id` when it is among the first `keep`:
/// completions arrive out of order, so slots are filled by id.
fn keep_at(kept: &mut Vec<Vec<Vec<f32>>>, keep: usize, id: usize, outputs: Vec<Vec<f32>>) {
    if id < keep {
        if kept.len() <= id {
            kept.resize(id + 1, Vec::new());
        }
        kept[id] = outputs;
    }
}

fn serve_end_to_end(args: &Args) -> Res<Outcome> {
    let case = ServeCase::new(args.seed)?;
    let mut out = Outcome::default();
    let (timed, metrics) = std::thread::scope(|scope| -> Res<_> {
        let mut setup =
            SetupSampler::new(scope, SetupThread::Loop, CpuRotation::new(false), || {
                let start = Instant::now();
                let server = case.server()?;
                let took = start.elapsed();
                drop(server);
                Ok(took)
            })?;
        let server = case.server()?;
        let mut mix = case.mix();
        case.drive(
            &server,
            &mut mix,
            Stop::Requests(SERVE_WARMUP),
            Taps::default(),
        )?;
        let timed = case.drive(
            &server,
            &mut mix,
            Stop::After(Duration::from_secs(args.seconds)),
            Taps {
                keep: SERVE_VERIFIED,
                trace: None,
                setup: Some(&mut setup),
            },
        )?;
        setup_metric(&mut out, &setup)?;
        Ok((timed, server.shutdown()))
    })?;
    out.attempted = timed.base.requests;
    out.errors = timed.base.errors;
    out.metric("frames_per_s", timed.base.frames_per_s(), "frames/s");
    latency_metrics(&mut out, &timed.base)?;
    out.metric("peak_rss_mb", peak_rss_mb()?, "MiB");
    case.verify(&timed, &mut out)?;
    out.note(format!(
        "{} requests / {} frames in {:.3} s; server: {} completed, {} rejected, {} errored",
        timed.base.requests,
        timed.base.frames,
        timed.base.elapsed_s,
        metrics.completed,
        metrics.rejected,
        metrics.errored
    ));
    Ok(out)
}

fn serve_layers(args: &Args) -> Res<Outcome> {
    let case = ServeCase::new(args.seed)?;
    let mut out = Outcome::default();
    let mut trace = Trace::new();
    let server = trace.span("setup.server_build", || case.server())?;
    let mut mix = case.mix();
    case.drive(
        &server,
        &mut mix,
        Stop::Requests(SERVE_WARMUP),
        Taps::default(),
    )?;
    let (mut untraced, mut traced) = (ServeLoop::default(), ServeLoop::default());
    for traced_block in trace_blocks(args) {
        let taps = Taps {
            trace: traced_block.then_some(&mut trace),
            ..Taps::default()
        };
        let block = case.drive(&server, &mut mix, Stop::After(TRACE_BLOCK), taps)?;
        if traced_block {
            traced.absorb(block);
        } else {
            untraced.absorb(block);
        }
    }
    let metrics = server.shutdown();
    out.attempted = untraced.base.requests + traced.base.requests;
    out.errors = untraced.base.errors + traced.base.errors;

    out.metric("serve.submit_us", trace.mean_ns("serve.submit", 1e3), "us");
    for kind in RequestKind::ALL {
        let samples = &traced.per_kind_ms[kind.index()];
        let p99 = tail_ms(&mut out, &format!("serve.{}", kind.name()), samples)?;
        out.metric(
            format!("serve.{}.p50_ms", kind.name()),
            median(samples)?,
            "ms",
        );
        out.metric(format!("serve.{}.p99_ms", kind.name()), p99, "ms");
    }
    let (batches, batched_frames) = metrics
        .shards
        .iter()
        .fold((0u64, 0u64), |(b, f), s| (b + s.batches, f + s.frames));
    out.metric(
        "serve.batch_mean",
        batched_frames as f64 / batches.max(1) as f64,
        "frames",
    );
    out.metric(
        "serve.stolen",
        metrics.shards.iter().map(|s| s.steals).sum::<u64>() as f64,
        "count",
    );
    out.metric("serve.rejected", metrics.rejected as f64, "count");
    out.metric("stream.skip_ratio", metrics.stream_skip_ratio(), "ratio");
    out.metric(
        "plan.hit_ratio",
        metrics.plan_hits as f64 / (metrics.plan_hits + metrics.plan_encodes).max(1) as f64,
        "ratio",
    );
    out.metric(
        "trace.overhead_frac",
        1.0 - traced.base.frames_per_s() / untraced.base.frames_per_s(),
        "ratio",
    );

    // Layer probes run on the classify group (the largest share of the
    // mix's optical work); the gate is timed on the stream requests' video.
    let platform = case.builder().build()?;
    let workload = case.workload(RequestKind::Classify);
    let slice = Duration::from_secs_f64(args.seconds as f64 * 0.04);
    let probes = LayerProbes {
        platform: &platform,
        workload: &workload,
        scenes: &case.scenes,
        batch: 1,
        slice,
    };
    probes.run(&mut trace, &mut CpuRotation::new(false), &mut out)?;
    let window = platform.config().ca.map_or(1, |ca| ca.pooling_window);
    let side = SERVE_SENSOR / window;
    let mut gate = TemporalDifferencer::new(stream_config(), side, side, window)?;
    let mut f = 1usize;
    for_slice(slice, || {
        let (scene, previous) = (&case.video[f], &case.video[f - 1]);
        black_box(trace.span("stream.gate", || gate.gate(scene, Some(previous))));
        f = f % (case.video.len() - 1) + 1;
        Ok(())
    })?;
    out.metric(
        "stream.gate_us_per_frame",
        trace.mean_ns("stream.gate", 1e3),
        "us",
    );
    out.note("exec.*, oc.* and noise.* are probed on the classify group's plan");
    out.trace = Some(trace);
    Ok(out)
}
