//! The measurement harness shared by every workload: set-up repetitions,
//! timed calls into the program, blocks of frames for throughput, the
//! alternating traced/untraced blocks of a traced run, and the per-layer
//! arithmetic over the spans and counters the program emits.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use xr_obs::{InstallGuard, Json, MetricsSnapshot, ObsCtx};
use xr_session::{SceneConfig, SceneEngine};

use crate::stats::{self, Interval};

/// The spans the program already emits at its layer boundaries.
pub const LAYER_SPANS: [&str; 5] =
    ["session.tick", "serve.pump", "poshgnn.mia.compute", "poshgnn.pdr.forward", "poshgnn.lwp.forward"];

/// A scene engine with every knob the environment could otherwise set
/// pinned: no deadline tracker, no ingest snapping, and the given
/// incremental mode and shortlist size (0 = dense).
pub fn pinned_engine(
    n: usize,
    scene: SceneConfig,
    viewers: &[usize],
    incremental: bool,
    prune_k: usize,
) -> SceneEngine {
    let mut engine = SceneEngine::new(n, scene, viewers);
    engine.set_slo(None);
    engine.set_incremental(incremental);
    engine.set_snap_epsilon(0.0);
    engine.set_prune_k(prune_k);
    engine
}

/// One recorded span, in microseconds since the trace sink's epoch.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: String,
    pub iv: Interval,
}

/// Tracing state of a traced run: one context installed on odd blocks, and
/// the instant that corresponds to a known sink time, so the benchmark's own
/// timings land on the trace's time axis.
struct Tracer {
    ctx: Arc<ObsCtx>,
    base: Instant,
    base_us: f64,
    /// Blocks left to trace; the trace is kept in memory, so a workload
    /// bounds how much of its run is traced.
    budget: usize,
}

/// Frames decided and system seconds spent in one block.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    pub frames: u64,
    pub secs: f64,
    pub traced: bool,
}

/// Everything one workload run measures.
pub struct Run {
    tracer: Option<Tracer>,
    traced_block: bool,
    /// Seconds per set-up repetition (the first counted from process start).
    pub setup_s: Vec<f64>,
    /// Generator share of each set-up repetition, seconds.
    pub datasets_setup_s: Vec<f64>,
    /// Generator milliseconds per frame (untimed in every system metric;
    /// kept by traced runs only, see [`Run::generated`]).
    pub frame_gen_ms: Vec<f64>,
    /// Frame-in to last-decision-out latencies, ms (untraced blocks only).
    pub frame_ms: Vec<f64>,
    pub blocks: Vec<Block>,
    block_frames: u64,
    block_secs: f64,
    /// Durations of the benchmark's calls into the program, ms, by callee
    /// (traced blocks only: they are per-layer figures).
    pub calls: BTreeMap<&'static str, Vec<f64>>,
    /// Timed frame-work windows of traced blocks, on the trace time axis.
    windows: Vec<Interval>,
    /// Users that moved since the frame their engine saw before (traced).
    pub movers: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Descriptions of failed output checks.
    pub check_failures: Vec<String>,
}

impl Run {
    pub fn new(trace: bool) -> Run {
        let tracer = trace.then(|| {
            let ctx = ObsCtx::new(true, true);
            let base = Instant::now();
            let base_us = ctx.trace.as_ref().expect("trace sink requested").now_us();
            Tracer { ctx, base, base_us, budget: 0 }
        });
        Run {
            tracer,
            traced_block: false,
            setup_s: Vec::new(),
            datasets_setup_s: Vec::new(),
            frame_gen_ms: Vec::new(),
            frame_ms: Vec::new(),
            blocks: Vec::new(),
            block_frames: 0,
            block_secs: 0.0,
            calls: BTreeMap::new(),
            windows: Vec::new(),
            movers: Vec::new(),
            attempted: 0,
            failed: 0,
            check_failures: Vec::new(),
        }
    }

    /// Sets how many blocks of a traced run are traced.
    pub fn trace_blocks(&mut self, blocks: usize) {
        if let Some(t) = &mut self.tracer {
            t.budget = blocks;
        }
    }

    /// Starts block `index`. In a traced run odd blocks are traced until the
    /// budget is spent, each paired with the untraced block before it; the
    /// returned guard keeps the context installed until it drops.
    pub fn begin_block(&mut self, index: usize) -> Option<InstallGuard> {
        self.block_frames = 0;
        self.block_secs = 0.0;
        let tracer = self.tracer.as_mut().filter(|t| index % 2 == 1 && t.budget > 0);
        self.traced_block = tracer.is_some();
        tracer.map(|t| {
            t.budget -= 1;
            t.ctx.install()
        })
    }

    /// Closes the current block and uninstalls its trace context, so work
    /// done between blocks (output checks) is never traced.
    pub fn end_block(&mut self, trace: Option<InstallGuard>) {
        drop(trace);
        self.blocks.push(Block {
            frames: self.block_frames,
            secs: self.block_secs,
            traced: self.traced_block,
        });
        self.traced_block = false;
    }

    /// Whether the current block is traced.
    pub fn traced(&self) -> bool {
        self.traced_block
    }

    /// Times one call into the program: its duration counts as system time,
    /// and in a traced block as a per-layer sample and a frame-work window.
    /// Returns the result and the call's start and end instants.
    pub fn time<R>(&mut self, callee: &'static str, f: impl FnOnce() -> R) -> (R, Instant, Instant) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        let end = Instant::now();
        self.block_secs += (end - start).as_secs_f64();
        if let (true, Some(t)) = (self.traced_block, &self.tracer) {
            let us = |i: Instant| t.base_us + (i - t.base).as_secs_f64() * 1e6;
            self.windows.push(Interval { start: us(start), end: us(end) });
            self.calls.entry(callee).or_default().push((end - start).as_secs_f64() * 1e3);
        }
        (out, start, end)
    }

    /// Records the generator time of `frames` frames, ms each. Only a
    /// traced run keeps them (they give a per-layer figure), so the samples
    /// never add to the peak RSS of an untraced run.
    pub fn generated(&mut self, ms: f64, frames: usize) {
        if self.tracer.is_some() {
            self.frame_gen_ms.extend(std::iter::repeat_n(ms, frames));
        }
    }

    /// Records frames fully decided in the current block, with their
    /// latencies (kept for untraced blocks, which give the end-to-end
    /// figures).
    pub fn decided(&mut self, latencies_ms: &[f64]) {
        self.block_frames += latencies_ms.len() as u64;
        if !self.traced_block {
            self.frame_ms.extend_from_slice(latencies_ms);
        }
    }

    /// Records one failed output check.
    pub fn check_failed(&mut self, what: String) {
        self.failed += 1;
        if self.check_failures.len() < 8 {
            self.check_failures.push(what);
        }
    }

    /// Frames per second of system time over the untraced blocks: their
    /// frames over their summed system time, so a slow phase of the host
    /// counts by the share of the run it lasts.
    pub fn frames_per_s(&self) -> f64 {
        let untraced = self.blocks.iter().filter(|b| !b.traced);
        let (frames, secs) = untraced.fold((0, 0.0), |(f, s), b| (f + b.frames, s + b.secs));
        if secs > 0.0 {
            frames as f64 / secs
        } else {
            0.0
        }
    }

    /// The `q` percentile of a callee's traced call durations (0 if never
    /// called).
    pub fn call_p(&self, callee: &str, q: f64) -> f64 {
        self.calls.get(callee).map_or(0.0, |v| stats::percentile(v, q))
    }

    /// Total traced time spent in a callee, ms.
    pub fn call_sum(&self, callee: &str) -> f64 {
        self.calls.get(callee).map_or(0.0, |v| v.iter().sum())
    }

    /// Total length of the traced frame-work windows, ms.
    pub fn window_ms(&self) -> f64 {
        self.windows.iter().map(Interval::len).sum::<f64>() / 1e3
    }

    /// Spans recorded by the traced blocks.
    pub fn spans(&self) -> Vec<SpanRec> {
        let Some(trace) = self.tracer.as_ref().and_then(|t| t.ctx.trace.as_ref()) else { return Vec::new() };
        let doc = trace.to_chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap_or(&[]);
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .filter_map(|e| {
                let name = e.get("name")?.as_str()?.to_string();
                let start = e.get("ts")?.as_f64()?;
                let dur = e.get("dur")?.as_f64()?;
                Some(SpanRec { name, iv: Interval { start, end: start + dur } })
            })
            .collect()
    }

    /// Counters, gauges and histograms recorded by the traced blocks.
    pub fn snapshot(&self) -> Option<MetricsSnapshot> {
        self.tracer.as_ref().map(|t| t.ctx.registry.snapshot())
    }

    /// Share of the traced frame-work windows not covered by any layer span,
    /// percent.
    pub fn unattributed_pct(&self, spans: &[SpanRec]) -> f64 {
        let layer: Vec<Interval> =
            spans.iter().filter(|s| LAYER_SPANS.contains(&s.name.as_str())).map(|s| s.iv).collect();
        let union = stats::union_of(&layer);
        let total = self.window_ms() * 1e3;
        let covered: f64 = self.windows.iter().map(|w| stats::covered_by_union(*w, &union)).sum();
        if total > 0.0 {
            100.0 * (total - covered) / total
        } else {
            0.0
        }
    }

    /// Tracing overhead, percent: the median over traced blocks of how much
    /// lower their throughput is than the untraced block just before them.
    pub fn trace_overhead_pct(&self) -> f64 {
        let rate = |b: &Block| if b.secs > 0.0 { b.frames as f64 / b.secs } else { 0.0 };
        let pairs: Vec<f64> = self
            .blocks
            .windows(2)
            .filter(|w| !w[0].traced && w[1].traced && rate(&w[0]) > 0.0)
            .map(|w| 100.0 * (1.0 - rate(&w[1]) / rate(&w[0])))
            .collect();
        stats::median(&pairs)
    }
}

/// Durations (ms) of every span named `name`.
pub fn span_ms(spans: &[SpanRec], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.iv.len() / 1e3).collect()
}

/// Self times (ms) of the `parent` spans minus the `child` spans they cover.
pub fn self_ms(spans: &[SpanRec], parent: &str, child: &str) -> Vec<f64> {
    let children: Vec<Interval> = spans.iter().filter(|s| s.name == child).map(|s| s.iv).collect();
    let union = stats::union_of(&children);
    spans.iter().filter(|s| s.name == parent).map(|s| stats::self_time(s.iv, &union) / 1e3).collect()
}

/// Scene-engine counters of a traced run, reduced to the per-layer ratios.
/// `viewers` is the registered viewer count of every engine in the workload.
pub fn session_layer(snap: &MetricsSnapshot, viewers: u64) -> Vec<(&'static str, f64)> {
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let ticks = c("session.ticks");
    let views = c("session.views_served");
    let prune_ticks = c("session.prune.ticks");
    let reused = c("session.prune.shortlists_reused");
    let inc_ticks = c("session.incremental.ticks");
    let scratch_ticks = ticks - prune_ticks - inc_ticks;
    let rebuilt =
        viewers as f64 * (prune_ticks + scratch_ticks) - reused + c("session.incremental.viewers_rebuilt");
    let tests = c("session.sweep.pair_tests");
    let saved = c("session.sweep.pair_tests_saved");
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("session.shortlists_reused_ratio", ratio(reused, viewers as f64 * prune_ticks)),
        ("session.viewers_rebuilt_ratio", ratio(rebuilt, views)),
        ("session.sweep_pair_tests_per_tick", ratio(tests, ticks)),
        ("session.sweep_saved_ratio", ratio(saved, tests + saved)),
    ]
}
