//! The bench bins' environment knobs, read once at the binary edge
//! ([`Knobs::from_env_or_exit`]) and passed down as explicit
//! parameters — the library crates read no configuration from the
//! environment. A set-but-malformed knob is an error naming the
//! variable, the value and the accepted values, never a silent fall
//! back to the default; an empty value counts as unset.

use std::ffi::OsString;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use printed_axc::RunManyOptions;

use crate::study::BudgetPreset;

/// Every knob the bench bins honour, with the variable it comes from.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Knobs {
    /// `PE_BUDGET` (`quick` / `full`); `None` leaves the bin's default.
    pub budget: Option<BudgetPreset>,
    /// `PE_THREADS`: the total worker budget; `0` means one worker per
    /// core ([`printed_axc::thread_budget`]).
    pub threads: usize,
    /// `PE_STORE`: a design-store JSON-lines path.
    pub store: Option<PathBuf>,
    /// `PE_CACHE_DIR`: a stage-cache directory.
    pub cache_dir: Option<PathBuf>,
}

/// A knob set to a value it does not accept.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KnobError {
    /// The environment variable.
    pub variable: &'static str,
    /// The rejected value (lossily decoded).
    pub value: String,
    /// What the variable accepts.
    pub accepted: &'static str,
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={:?} is not valid; accepted values: {}",
            self.variable, self.value, self.accepted
        )
    }
}

impl std::error::Error for KnobError {}

const COUNT: &str = "a non-negative integer";

impl Knobs {
    /// Read every knob from the process environment.
    ///
    /// # Errors
    ///
    /// [`KnobError`] for the first knob set to a value it does not
    /// accept.
    pub fn from_env() -> Result<Self, KnobError> {
        Self::from_lookup(|name| std::env::var_os(name))
    }

    /// Read every knob through `lookup` (variable name → value), the
    /// testable core of [`from_env`](Self::from_env).
    fn from_lookup(lookup: impl Fn(&str) -> Option<OsString>) -> Result<Self, KnobError> {
        let get = |name: &str| lookup(name).filter(|value| !value.is_empty());
        let invalid = |variable, raw: &OsString, accepted| KnobError {
            variable,
            value: raw.to_string_lossy().into_owned(),
            accepted,
        };
        let count = |variable| {
            get(variable)
                .map(|raw| {
                    raw.to_str()
                        .and_then(|text| text.parse::<usize>().ok())
                        .ok_or_else(|| invalid(variable, &raw, COUNT))
                })
                .transpose()
        };
        let budget = get("PE_BUDGET")
            .map(|raw| match raw.to_str() {
                Some("quick") => Ok(BudgetPreset::Quick),
                Some("full") => Ok(BudgetPreset::Full),
                _ => Err(invalid("PE_BUDGET", &raw, "quick, full")),
            })
            .transpose()?;
        Ok(Self {
            budget,
            threads: count("PE_THREADS")?.unwrap_or(0),
            store: get("PE_STORE").map(PathBuf::from),
            cache_dir: get("PE_CACHE_DIR").map(PathBuf::from),
        })
    }

    /// [`from_env`](Self::from_env) for a bin's `main`: on a malformed
    /// knob, print the error and exit with status 2 before any work.
    #[must_use]
    pub fn from_env_or_exit() -> Self {
        Self::from_env().unwrap_or_else(|err| {
            eprintln!("error: {err}");
            std::process::exit(2);
        })
    }

    /// The worker budget, with `0` resolved to one worker per core.
    #[must_use]
    pub fn thread_budget(&self) -> usize {
        match self.threads {
            0 => printed_axc::thread_budget(),
            threads => threads,
        }
    }

    /// Worker-pool options for [`printed_axc::Pipeline::run_many`]: the
    /// worker budget (the output is byte-identical at any budget), the
    /// design store and the stage-cache directory.
    ///
    /// The stage cache persists stage artifacts (and the search stage's
    /// crash-safety checkpoints), so a killed bench run resumes instead
    /// of restarting — with byte-identical outputs either way.
    #[must_use]
    pub fn run_many_options(&self) -> RunManyOptions {
        let mut opts = RunManyOptions::with_threads(self.thread_budget());
        opts.store = self.store.as_deref().and_then(open_store);
        opts.cache_dir.clone_from(&self.cache_dir);
        opts
    }
}

/// The shared design-store writer at `path`, or `None`.
///
/// Ingest-only: designs are recorded as a pure side channel, never
/// warm-started, so every artifact a store-attached bench run emits is
/// byte-identical to a storeless run's. A corrupt store is reopened
/// through [`pe_store::StoreWriter::open_salvaged`] — a torn trailing
/// line (the signature a killed append leaves behind) is truncated away
/// with a report to stderr, keeping every intact record. A store that
/// still cannot be opened is reported and skipped — a broken store file
/// must never fail a bench run.
fn open_store(path: &Path) -> Option<Arc<pe_store::StoreWriter>> {
    match pe_store::StoreWriter::open(path) {
        Ok(writer) => Some(Arc::new(writer)),
        Err(err @ pe_store::StoreError::Corrupt { .. }) => {
            eprintln!("warning: PE_STORE store is corrupt ({err}); attempting salvage");
            match pe_store::StoreWriter::open_salvaged(path) {
                Ok((writer, report)) => {
                    eprintln!("PE_STORE salvage: {report}");
                    Some(Arc::new(writer))
                }
                Err(err) => {
                    eprintln!("warning: PE_STORE ignored (salvage failed): {err}");
                    None
                }
            }
        }
        Err(err) => {
            eprintln!("warning: PE_STORE ignored: {err}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(vars: &[(&str, &str)]) -> Result<Knobs, KnobError> {
        Knobs::from_lookup(|name| {
            vars.iter()
                .find(|(key, _)| *key == name)
                .map(|(_, value)| OsString::from(value))
        })
    }

    #[test]
    fn unset_or_empty_knobs_are_the_defaults() {
        for vars in [&[][..], &[("PE_THREADS", ""), ("PE_BUDGET", "")]] {
            assert_eq!(knobs(vars), Ok(Knobs::default()));
        }
        assert_eq!(
            Knobs::default().thread_budget(),
            printed_axc::thread_budget()
        );
    }

    #[test]
    fn every_knob_parses() {
        let parsed = knobs(&[
            ("PE_BUDGET", "quick"),
            ("PE_THREADS", "2"),
            ("PE_STORE", "/tmp/store.jsonl"),
            ("PE_CACHE_DIR", "cache"),
            ("PE_UNRELATED", "x"),
        ]);
        let expected = Knobs {
            budget: Some(BudgetPreset::Quick),
            threads: 2,
            store: Some(PathBuf::from("/tmp/store.jsonl")),
            cache_dir: Some(PathBuf::from("cache")),
        };
        assert_eq!(parsed, Ok(expected.clone()));
        assert_eq!(expected.thread_budget(), 2);
        let full = knobs(&[("PE_BUDGET", "full")]).map(|k| k.budget);
        assert_eq!(full, Ok(Some(BudgetPreset::Full)));
    }

    #[test]
    fn malformed_knobs_name_the_variable_the_value_and_the_accepted_values() {
        for (variable, value, accepted) in [
            ("PE_BUDGET", "Quick", "quick, full"),
            ("PE_THREADS", "two", COUNT),
            ("PE_THREADS", "-1", COUNT),
            ("PE_THREADS", "2.0", COUNT),
        ] {
            let err = knobs(&[(variable, value)]).expect_err("malformed knob");
            let message = err.to_string();
            assert!(
                [variable, value, accepted]
                    .iter()
                    .all(|part| message.contains(part)),
                "{message}"
            );
            let value = value.to_owned();
            assert_eq!(
                err,
                KnobError {
                    variable,
                    value,
                    accepted
                }
            );
        }
    }
}
