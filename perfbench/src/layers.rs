//! The per-layer metrics of a traced iteration: the spans and counts
//! [`crate::trace`] splits out of each dataset's event stream, summed
//! over the five datasets (thread-seconds), with their base counts.

use std::collections::BTreeMap;

use printed_axc::{ProgressEvent, StageKind};

use crate::run::Untraced;
use crate::trace::{
    attributed_share, cache_counters, hit_rate, split_search, stage_store_gaps, worker_idle,
    CacheCounters, SearchPhases, Span,
};
use crate::traced::{DatasetTrace, Traced, TracedPass};

/// Per-layer metrics of the traced run: name and unit.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("pipeline.prepare_s", "s"),
    ("mlp.sgd_s", "s"),
    ("mlp.sgd_epochs", "count"),
    ("hw.baseline_cost_s", "s"),
    ("init.seed_refine_s", "s"),
    ("ga.loop_s", "s"),
    ("ga.evals", "count"),
    ("ga.evals_per_s", "1/s"),
    ("eval.genome_hit_rate", "share"),
    ("eval.genome_lookups", "count"),
    ("columns.hit_rate", "share"),
    ("columns.lookups", "count"),
    ("columns.contended", "count"),
    ("arith.cost_hit_rate", "share"),
    ("arith.cost_lookups", "count"),
    ("init.polish_s", "s"),
    ("pareto.front_cost_s", "s"),
    ("pareto.select_s", "s"),
    ("checkpoint.count", "count"),
    ("checkpoint.write_s", "s"),
    ("store.ingested", "count"),
    ("store.bytes", "bytes"),
    ("pipeline.stage_store_s", "s"),
    ("store.open_s", "s"),
    ("pipeline.stage_load_s", "s"),
    ("pipeline.cache_bytes", "bytes"),
    ("pipeline.worker_idle_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.attributed_share", "share"),
];

/// The per-layer metrics of one traced iteration; `untraced` is the
/// untraced iteration run just before it.
pub fn layer_metrics(t: &Traced, untraced: &Untraced) -> BTreeMap<String, f64> {
    let main = &t.main.datasets;
    let stage = |kind: StageKind| -> f64 {
        main.iter()
            .flat_map(|d| &d.stages)
            .filter(|(k, _)| *k == kind)
            .map(|(_, span)| span.secs())
            .sum()
    };
    let front_cost = |d: &DatasetTrace| d.front_cost.map_or(0.0, Span::secs);
    let phases: Vec<SearchPhases> = main
        .iter()
        .filter_map(|d| {
            let (_, search) = d.stages.iter().find(|(k, _)| *k == StageKind::Searched)?;
            split_search(&d.events, *search, front_cost(d))
        })
        .collect();
    let phase = |f: fn(&SearchPhases) -> f64| -> f64 { phases.iter().map(f).sum() };
    let sgd_epochs = main
        .iter()
        .flat_map(|d| &d.events)
        .filter(|s| matches!(s.event, ProgressEvent::SgdEpoch { .. }))
        .count();
    let mut c = CacheCounters::default();
    for d in main {
        c.add(&cache_counters(&d.events));
    }
    let stage_store: f64 = main
        .iter()
        .filter_map(|d| Some(stage_store_gaps(&d.events, d.chain?.end)))
        .sum();
    let warm = t.warm.iter().flat_map(|p| &p.datasets);
    let stage_load: f64 = warm.filter_map(|d| d.chain.map(Span::secs)).sum();
    let passes: Vec<&TracedPass> = std::iter::once(&t.main).chain(&t.warm).collect();
    let idle: f64 = passes.iter().map(|p| pass_idle(p)).sum();
    let wall: f64 = passes.iter().map(|p| p.wall).sum();
    let evals = phases.iter().map(|p| p.evaluations).sum::<u64>() as f64;
    let ga_loop = phase(|p| p.ga_loop);

    let computed: f64 = main
        .iter()
        .flat_map(|d| &d.stages)
        .map(|(_, s)| s.secs())
        .sum();
    let replayed: f64 = main.iter().map(front_cost).sum();
    let named = computed + replayed + stage_store + stage_load + idle;
    let untraced_wall = untraced.wall_s
        + if t.warm.is_some() {
            untraced.resume_s
        } else {
            0.0
        };

    let count = |n: u64| n as f64;
    BTreeMap::from([
        ("pipeline.prepare_s", stage(StageKind::Prepared)),
        ("mlp.sgd_s", stage(StageKind::FloatTrained)),
        ("mlp.sgd_epochs", sgd_epochs as f64),
        ("hw.baseline_cost_s", stage(StageKind::BaselineCosted)),
        ("init.seed_refine_s", phase(|p| p.seed_refine)),
        ("ga.loop_s", ga_loop),
        ("ga.evals", evals),
        (
            "ga.evals_per_s",
            if ga_loop > 0.0 { evals / ga_loop } else { 0.0 },
        ),
        (
            "eval.genome_hit_rate",
            hit_rate(c.genome_hits, c.genome_misses),
        ),
        (
            "eval.genome_lookups",
            count(c.genome_hits + c.genome_misses),
        ),
        ("columns.hit_rate", hit_rate(c.column_hits, c.column_misses)),
        ("columns.lookups", count(c.column_hits + c.column_misses)),
        ("columns.contended", count(c.column_contended)),
        ("arith.cost_hit_rate", hit_rate(c.cost_hits, c.cost_misses)),
        ("arith.cost_lookups", count(c.cost_hits + c.cost_misses)),
        ("init.polish_s", phase(|p| p.polish)),
        ("pareto.front_cost_s", replayed),
        ("pareto.select_s", stage(StageKind::Selected)),
        (
            "checkpoint.count",
            phases.iter().map(|p| p.checkpoints).sum::<u64>() as f64,
        ),
        ("checkpoint.write_s", phase(|p| p.checkpoint_write)),
        ("store.ingested", count(c.store_ingested)),
        ("store.bytes", count(c.store_bytes)),
        ("pipeline.stage_store_s", stage_store),
        ("store.open_s", t.store_open_s),
        ("pipeline.stage_load_s", stage_load),
        ("pipeline.cache_bytes", t.cache_bytes as f64),
        ("pipeline.worker_idle_s", idle),
        ("trace.wall_s", wall),
        ("trace.untraced_wall_s", untraced_wall),
        ("trace.overhead_s", wall - untraced_wall),
        (
            "trace.attributed_share",
            attributed_share(named, t.main.workers, wall),
        ),
    ])
    .into_iter()
    .map(|(name, value)| (name.to_owned(), value))
    .collect()
}

/// One JSON object per named span of a traced iteration: the pass,
/// dataset, worker, span name and its start and end in seconds since
/// the pass started.
pub fn span_records(iteration: usize, t: &Traced) -> Vec<String> {
    let passes = std::iter::once(("main", &t.main)).chain(t.warm.iter().map(|w| ("warm", w)));
    let mut records = Vec::new();
    for (pass, p) in passes {
        for d in &p.datasets {
            let stages = d.stages.iter().map(|(kind, span)| (kind.as_str(), *span));
            let others = [("front_cost", d.front_cost), ("chain", d.chain)];
            let named = others.into_iter().filter_map(|(n, s)| Some((n, s?)));
            for (name, span) in stages.chain(named) {
                records.push(format!(
                    "{{\"iteration\": {iteration}, \"pass\": \"{pass}\", \"dataset\": \"{}\", \"worker\": {}, \"span\": \"{name}\", \"start\": {}, \"end\": {}}}",
                    d.dataset.spec().short_name,
                    d.worker,
                    span.start,
                    span.end
                ));
            }
        }
    }
    records
}

/// Seconds the pass's workers sat with no dataset left.
fn pass_idle(pass: &TracedPass) -> f64 {
    let ends: Vec<f64> = (0..pass.workers)
        .filter_map(|w| {
            let mine = pass.datasets.iter().filter(|d| d.worker == w);
            mine.map(DatasetTrace::end).reduce(f64::max)
        })
        .collect();
    worker_idle(&ends, pass.workers, pass.wall)
}
