//! Deterministic fault injection for crash-recovery drills.
//!
//! The `PE_FAULT` environment variable carries a comma-separated plan
//! of rules, each `action@site:trigger`:
//!
//! * `action` — `kill` (abort the process, leaving whatever bytes the
//!   site managed to write) or `err` (surface an injected I/O error /
//!   panic through the site's normal failure path).
//! * `site` — one of the four instrumentation points:
//!   [`SITE_ATOMIC_WRITE`], [`SITE_STORE_APPEND`],
//!   [`SITE_SEARCHED_GENERATION`], [`SITE_EVAL_BATCH`]. Any other name
//!   is a malformed rule, so a misspelt site cannot arm a rule that
//!   never fires.
//! * `trigger` — which arrival at the site fires the rule: a literal
//!   1-based occurrence (`3`), or a seeded draw `s<seed>/<span>` that
//!   picks one occurrence uniformly from `1..=span`. The draw is
//!   domain-separated by site name (like the variation model's
//!   `trial_seed`), so one seed lands on a different, reproducible
//!   occurrence at every site.
//!
//! Example: `PE_FAULT=kill@searched_generation:s7/23` kills the
//! process at the seed-7 draw over the first 23 GA generations —
//! exactly the same generation every run, different per seed.
//!
//! Instrumented code calls [`check`] at each site and honours the
//! returned [`FaultAction`]. Without `PE_FAULT` the check is one
//! relaxed atomic load — the instrumentation is free in production.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use pe_arith::cache::{fnv1a64, splitmix64};

/// What an armed fault rule asks the site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Abort the process on the spot (a crash drill: no destructors,
    /// no flushes — like SIGKILL).
    Kill,
    /// Fail through the site's normal error path (an injected I/O
    /// error for write sites; a panic for evaluation sites).
    Err,
}

/// Site name: the temp-file write inside [`crate::io::atomic_write`].
pub const SITE_ATOMIC_WRITE: &str = "atomic_write";
/// Site name: the JSONL append inside [`crate::StoreWriter::ingest`].
pub const SITE_STORE_APPEND: &str = "store_append";
/// Site name: the end of one GA generation of the search stage.
pub const SITE_SEARCHED_GENERATION: &str = "searched_generation";
/// Site name: one batch evaluation wave of the search stage.
pub const SITE_EVAL_BATCH: &str = "eval_batch";

/// Every instrumented site: the only names a rule may target.
const SITES: [&str; 4] = [
    SITE_ATOMIC_WRITE,
    SITE_STORE_APPEND,
    SITE_SEARCHED_GENERATION,
    SITE_EVAL_BATCH,
];

/// One parsed `action@site:trigger` rule.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Rule {
    action: FaultAction,
    site: String,
    /// 1-based arrival at the site that fires this rule.
    occurrence: u64,
}

/// A parsed `PE_FAULT` plan: which arrival at which site does what.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// Parse a plan from `PE_FAULT` syntax.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed
    /// rule: an unknown action or site, or a missing or bad trigger.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for part in text.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (action, rest) = part
                .split_once('@')
                .ok_or_else(|| format!("fault rule `{part}`: expected action@site:trigger"))?;
            let action = match action {
                "kill" => FaultAction::Kill,
                "err" => FaultAction::Err,
                other => return Err(format!("fault rule `{part}`: unknown action `{other}`")),
            };
            let (site, trigger) = rest
                .split_once(':')
                .ok_or_else(|| format!("fault rule `{part}`: expected action@site:trigger"))?;
            if !SITES.contains(&site) {
                return Err(format!(
                    "fault rule `{part}`: unknown site `{site}` (expected one of {})",
                    SITES.join(", ")
                ));
            }
            let occurrence = if let Some(seeded) = trigger.strip_prefix('s') {
                let (seed, span) = seeded
                    .split_once('/')
                    .ok_or_else(|| format!("fault rule `{part}`: expected s<seed>/<span>"))?;
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("fault rule `{part}`: bad seed `{seed}`"))?;
                let span: u64 = span
                    .parse()
                    .map_err(|_| format!("fault rule `{part}`: bad span `{span}`"))?;
                if span == 0 {
                    return Err(format!("fault rule `{part}`: span must be positive"));
                }
                seeded_occurrence(seed, site, span)
            } else {
                let n: u64 = trigger
                    .parse()
                    .map_err(|_| format!("fault rule `{part}`: bad occurrence `{trigger}`"))?;
                if n == 0 {
                    return Err(format!("fault rule `{part}`: occurrences are 1-based"));
                }
                n
            };
            rules.push(Rule {
                action,
                site: site.to_string(),
                occurrence,
            });
        }
        Ok(FaultPlan { rules })
    }

    /// Whether the plan has any rules at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// What (if anything) fires at the `occurrence`-th arrival at
    /// `site`. Pure: does not touch the global arrival counters.
    #[must_use]
    pub fn decide(&self, site: &str, occurrence: u64) -> Option<FaultAction> {
        self.rules
            .iter()
            .find(|r| r.site == site && r.occurrence == occurrence)
            .map(|r| r.action)
    }
}

/// The seeded occurrence draw: SplitMix64 over the seed XOR the
/// FNV-1a hash of the site name, reduced to `1..=span`. Domain
/// separation by site means one seed picks an independent (but
/// reproducible) occurrence at every site.
#[must_use]
pub fn seeded_occurrence(seed: u64, site: &str, span: u64) -> u64 {
    splitmix64(seed ^ fnv1a64(site.as_bytes())) % span + 1
}

/// The process-wide plan parsed from `PE_FAULT` (once), plus per-site
/// arrival counters.
struct Injector {
    plan: FaultPlan,
    arrivals: Mutex<HashMap<String, u64>>,
}

fn injector() -> &'static Option<Injector> {
    static INJECTOR: OnceLock<Option<Injector>> = OnceLock::new();
    INJECTOR.get_or_init(|| {
        let text = std::env::var("PE_FAULT").ok()?;
        match FaultPlan::parse(&text) {
            Ok(plan) if !plan.is_empty() => Some(Injector {
                plan,
                arrivals: Mutex::new(HashMap::new()),
            }),
            Ok(_) => None,
            Err(reason) => {
                eprintln!("warning: PE_FAULT ignored: {reason}");
                None
            }
        }
    })
}

/// Record one arrival at `site` and return the action to honour, if a
/// `PE_FAULT` rule fires on this occurrence. Without `PE_FAULT` this
/// never fires and costs one initialization check.
#[must_use]
pub fn check(site: &str) -> Option<FaultAction> {
    let injector = injector().as_ref()?;
    let mut arrivals = injector
        .arrivals
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let count = arrivals.entry(site.to_string()).or_insert(0);
    *count += 1;
    injector.plan.decide(site, *count)
}

/// Abort the process immediately — the `kill` action's endpoint. No
/// unwinding, no destructors, no buffered-write flushes: the closest
/// safe-Rust equivalent of being SIGKILLed.
pub fn kill_now() -> ! {
    std::process::abort()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_literal_and_seeded_triggers() {
        let plan = FaultPlan::parse("kill@store_append:3,err@atomic_write:s9/40").expect("parses");
        assert_eq!(plan.decide(SITE_STORE_APPEND, 3), Some(FaultAction::Kill));
        assert_eq!(plan.decide(SITE_STORE_APPEND, 2), None);
        let occurrence = seeded_occurrence(9, SITE_ATOMIC_WRITE, 40);
        assert!((1..=40).contains(&occurrence));
        assert_eq!(
            plan.decide(SITE_ATOMIC_WRITE, occurrence),
            Some(FaultAction::Err)
        );
    }

    #[test]
    fn empty_and_blank_plans_have_no_rules() {
        assert!(FaultPlan::parse("").expect("parses").is_empty());
        assert!(FaultPlan::parse(" , ").expect("parses").is_empty());
    }

    #[test]
    fn malformed_rules_are_rejected() {
        for bad in [
            "boom@store_append:1",
            "kill@store_append",
            "kill@:1",
            "kill@store_append:0",
            "kill@store_append:s5",
            "kill@store_append:s5/0",
            "kill@store_append:many",
            "kill@searched_generaton:1",
            "kill@island_migration:1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn seeded_occurrences_are_domain_separated_and_reproducible() {
        let a = seeded_occurrence(7, SITE_STORE_APPEND, 1000);
        assert_eq!(a, seeded_occurrence(7, SITE_STORE_APPEND, 1000));
        let b = seeded_occurrence(7, SITE_ATOMIC_WRITE, 1000);
        assert_ne!(a, b, "sites draw independent occurrences");
        // The draw covers the whole span across seeds.
        let draws: std::collections::HashSet<u64> = (0..64)
            .map(|seed| seeded_occurrence(seed, SITE_EVAL_BATCH, 4))
            .collect();
        assert_eq!(draws.len(), 4);
    }
}
