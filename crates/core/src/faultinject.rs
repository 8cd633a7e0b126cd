//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultPlan`] names *sites* in the pipeline where a fault should be
//! injected — a panic inside a root's exploration, an IO error around the
//! store's temp+rename save, a simulated budget trip at a fork point — so
//! the fault-containment machinery (per-root quarantine, the demotion
//! ladder, serve-loop survival, store crash recovery) can be driven from
//! tests, benches and `pata analyze --fault-plan` without any nondeterminism.
//!
//! # Plan syntax
//!
//! A plan is a comma-separated list of entries:
//!
//! ```text
//! site[:label][@hit][~percent]
//! seed=N
//! ```
//!
//! - `site` — where the fault fires (see [`FaultPlan::SITES`]). The site
//!   determines the fault kind: exploration/checker/validation/session
//!   sites panic, `deadline`/`live_bytes` trip the matching resource
//!   budget at the next fork point, and the `store.save*` sites produce
//!   IO errors at the named crash point of the store writer.
//! - `label` — restricts the entry to one occurrence of the site (the
//!   root function name for per-root sites). Omitted = every occurrence.
//! - `@hit` — fire only on the N-th hit of the `(site, label)` counter
//!   (1-based). Omitted = fire on every hit. Hit counts for exploration
//!   sites are deterministic per root; for `@N` with `N > 1` they depend
//!   on the cache configuration, so cross-config byte-identity is only
//!   guaranteed for `@1` and for unconditional entries.
//! - `~percent` — fire probabilistically with the given percentage. The
//!   coin is a pure function of `(seed, site, label, hit)` through the
//!   in-crate splitmix64 mixer (`fingerprint::mix`), so the outcome is
//!   reproducible and independent of thread timing.
//!
//! Example: `explore:probe_a@1,deadline:probe_b,store.save~50,seed=7`.
//!
//! The canonical rendering of a plan ([`FaultPlan::spec`]) participates in
//! the persistent-store configuration fingerprint: two sessions with
//! different fault plans never share cached results.

use crate::fingerprint::{fnv64, mix};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// What an injected fault does at its site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a deterministic `fault injected: site[:label]` message.
    Panic,
    /// Return an `io::Error` from the instrumented IO operation.
    IoError,
    /// Trip the per-root wall-clock deadline budget.
    Deadline,
    /// Trip the per-root live-bytes ceiling budget.
    LiveBytes,
}

/// One parsed plan entry.
#[derive(Debug, Clone)]
struct FaultRule {
    site: String,
    /// `None` matches every occurrence of the site.
    label: Option<String>,
    /// 1-based hit number this rule fires on; `None` = every hit.
    hit: Option<u64>,
    /// Firing probability in percent; `None` = always.
    percent: Option<u64>,
}

/// Error from [`FaultPlan::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// An entry names a site that does not exist.
    UnknownSite(String),
    /// An entry could not be parsed; carries the offending entry.
    Malformed(String),
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::UnknownSite(s) => write!(
                f,
                "unknown fault site `{s}` (expected one of: {})",
                FaultPlan::SITES.join(", ")
            ),
            FaultPlanError::Malformed(e) => write!(f, "malformed fault-plan entry `{e}`"),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A deterministic fault-injection plan. See the module docs for syntax.
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    seed: u64,
    /// Canonical spec string (normalized entry order preserved), used by
    /// the configuration fingerprint.
    spec: String,
    /// Per-`(site, label)` hit counters. Behind a mutex: fault checks are
    /// rare (plans exist only in tests/benches) and per-root labels make
    /// the counts independent of cross-root thread interleaving.
    counters: Mutex<HashMap<(String, String), u64>>,
}

impl fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultPlan")
            .field("spec", &self.spec)
            .finish()
    }
}

impl FaultPlan {
    /// Every site the pipeline instruments, in documentation order.
    pub const SITES: [&'static str; 12] = [
        // Per-root panic sites (label = root function name).
        "explore",
        "checker",
        "validate",
        // Per-root resource-budget trips at fork points.
        "deadline",
        "live_bytes",
        // Session boundary (panic caught by AnalysisSession::analyze).
        "session.analyze",
        // Store-save IO faults and crash points (serial, unlabeled).
        "store.save",
        "store.save.before_tmp",
        "store.save.mid_tmp",
        "store.save.before_rename",
        "store.save.after_rename",
        "store.save.mid_append",
    ];

    /// Parses a plan from its textual spec. An empty spec is a valid plan
    /// that never fires.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultPlanError> {
        let mut rules = Vec::new();
        let mut seed = 0u64;
        let mut canonical: Vec<String> = Vec::new();
        for raw in spec.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(v) = entry.strip_prefix("seed=") {
                seed = v
                    .parse()
                    .map_err(|_| FaultPlanError::Malformed(entry.to_string()))?;
                continue;
            }
            let (head, percent) = match entry.split_once('~') {
                Some((h, p)) => {
                    let pct: u64 = p
                        .parse()
                        .map_err(|_| FaultPlanError::Malformed(entry.to_string()))?;
                    if pct == 0 || pct > 100 {
                        return Err(FaultPlanError::Malformed(entry.to_string()));
                    }
                    (h, Some(pct))
                }
                None => (entry, None),
            };
            let (head, hit) = match head.split_once('@') {
                Some((h, n)) => {
                    let hit: u64 = n
                        .parse()
                        .map_err(|_| FaultPlanError::Malformed(entry.to_string()))?;
                    if hit == 0 {
                        return Err(FaultPlanError::Malformed(entry.to_string()));
                    }
                    (h, Some(hit))
                }
                None => (head, None),
            };
            let (site, label) = match head.split_once(':') {
                Some((s, l)) if !l.is_empty() => (s, Some(l.to_string())),
                Some((s, _)) => (s, None),
                None => (head, None),
            };
            if !Self::SITES.contains(&site) {
                return Err(FaultPlanError::UnknownSite(site.to_string()));
            }
            let mut c = site.to_string();
            if let Some(l) = &label {
                c.push(':');
                c.push_str(l);
            }
            if let Some(h) = hit {
                c.push('@');
                c.push_str(&h.to_string());
            }
            if let Some(p) = percent {
                c.push('~');
                c.push_str(&p.to_string());
            }
            canonical.push(c);
            rules.push(FaultRule {
                site: site.to_string(),
                label,
                hit,
                percent,
            });
        }
        if seed != 0 {
            canonical.push(format!("seed={seed}"));
        }
        Ok(FaultPlan {
            rules,
            seed,
            spec: canonical.join(","),
            counters: Mutex::new(HashMap::new()),
        })
    }

    /// The canonical spec string (normalized; stable across parses of
    /// equivalent inputs). Feeds the configuration fingerprint.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// The fault the pipeline should act on at the site, derived from the
    /// site name (see the module docs).
    pub fn action_for(site: &str) -> FaultAction {
        match site {
            "deadline" => FaultAction::Deadline,
            "live_bytes" => FaultAction::LiveBytes,
            s if s.starts_with("store.save") => FaultAction::IoError,
            _ => FaultAction::Panic,
        }
    }

    /// Records one hit of `(site, label)` and reports whether any entry of
    /// the plan fires on it. Deterministic: the hit counter is scoped to
    /// the `(site, label)` pair (per-root sites use the root name as the
    /// label, and a root's exploration is single-threaded), and the
    /// probabilistic coin is a pure function of `(seed, site, label, hit)`.
    pub fn should_fire(&self, site: &str, label: &str) -> bool {
        if !self.rules.iter().any(|r| r.site == site) {
            return false;
        }
        let mut counters = self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let hit = counters
            .entry((site.to_string(), label.to_string()))
            .or_insert(0);
        *hit += 1;
        let hit = *hit;
        drop(counters);
        self.rules.iter().any(|r| {
            r.site == site
                && r.label.as_deref().is_none_or(|l| l == label)
                && r.hit.is_none_or(|n| n == hit)
                && r.percent.is_none_or(|p| {
                    let coin = mix(self.seed
                        ^ fnv64(site.as_bytes())
                        ^ fnv64(label.as_bytes()).rotate_left(17)
                        ^ hit);
                    coin % 100 < p
                })
        })
    }

    /// Resets every hit counter — lets one plan drive repeated runs with
    /// identical firing behavior (the fault-matrix suite re-runs a fixed
    /// plan across thread counts and cache configurations).
    pub fn reset(&self) {
        self.counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clear();
    }
}

/// Panics with a deterministic message when the plan fires at a
/// panic-action site. No-op for `None` plans — the production path.
pub fn maybe_panic(plan: Option<&FaultPlan>, site: &str, label: &str) {
    if let Some(plan) = plan {
        if plan.should_fire(site, label) {
            if label.is_empty() {
                panic!("fault injected: {site}");
            }
            panic!("fault injected: {site}:{label}");
        }
    }
}

/// Returns an injected IO error when the plan fires at an IO-action site.
pub fn maybe_io(plan: Option<&FaultPlan>, site: &str) -> std::io::Result<()> {
    if let Some(plan) = plan {
        if plan.should_fire(site, "") {
            return Err(std::io::Error::other(format!("fault injected: {site}")));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_never_fires() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(!plan.should_fire("explore", "root_a"));
        assert_eq!(plan.spec(), "");
    }

    #[test]
    fn site_and_label_match() {
        let plan = FaultPlan::parse("explore:root_a").unwrap();
        assert!(plan.should_fire("explore", "root_a"));
        assert!(!plan.should_fire("explore", "root_b"));
        assert!(!plan.should_fire("checker", "root_a"));
        // Unconditional entries fire on every hit.
        assert!(plan.should_fire("explore", "root_a"));
    }

    #[test]
    fn unlabeled_entry_matches_every_label() {
        let plan = FaultPlan::parse("checker").unwrap();
        assert!(plan.should_fire("checker", "a"));
        assert!(plan.should_fire("checker", "b"));
    }

    #[test]
    fn hit_selector_fires_exactly_once() {
        let plan = FaultPlan::parse("deadline:probe@2").unwrap();
        assert!(!plan.should_fire("deadline", "probe"));
        assert!(plan.should_fire("deadline", "probe"));
        assert!(!plan.should_fire("deadline", "probe"));
        plan.reset();
        assert!(!plan.should_fire("deadline", "probe"));
        assert!(plan.should_fire("deadline", "probe"));
    }

    #[test]
    fn hit_counters_are_per_label() {
        let plan = FaultPlan::parse("explore@1").unwrap();
        assert!(plan.should_fire("explore", "a"));
        // A different label has its own counter, still at hit 1.
        assert!(plan.should_fire("explore", "b"));
        assert!(!plan.should_fire("explore", "a"));
    }

    #[test]
    fn probabilistic_entries_are_deterministic() {
        let run = || {
            let plan = FaultPlan::parse("store.save~50,seed=42").unwrap();
            (0..64)
                .map(|_| plan.should_fire("store.save", ""))
                .collect::<Vec<bool>>()
        };
        let a = run();
        assert_eq!(a, run(), "same seed, same outcomes");
        assert!(a.iter().any(|&f| f), "~50 over 64 trials fires sometimes");
        assert!(!a.iter().all(|&f| f), "…but not always");
        let other = FaultPlan::parse("store.save~50,seed=43").unwrap();
        let b: Vec<bool> = (0..64)
            .map(|_| other.should_fire("store.save", ""))
            .collect();
        assert_ne!(a, b, "different seed, different outcomes");
    }

    #[test]
    fn parse_rejects_unknown_site_and_garbage() {
        assert!(matches!(
            FaultPlan::parse("frobnicate"),
            Err(FaultPlanError::UnknownSite(_))
        ));
        assert!(matches!(
            FaultPlan::parse("explore@zero"),
            Err(FaultPlanError::Malformed(_))
        ));
        assert!(matches!(
            FaultPlan::parse("explore@0"),
            Err(FaultPlanError::Malformed(_))
        ));
        assert!(matches!(
            FaultPlan::parse("explore~101"),
            Err(FaultPlanError::Malformed(_))
        ));
        assert!(matches!(
            FaultPlan::parse("seed=xyz"),
            Err(FaultPlanError::Malformed(_))
        ));
    }

    #[test]
    fn canonical_spec_round_trips() {
        let plan = FaultPlan::parse(" explore:probe_a@1 , store.save~50 ,seed=7").unwrap();
        assert_eq!(plan.spec(), "explore:probe_a@1,store.save~50,seed=7");
        let re = FaultPlan::parse(plan.spec()).unwrap();
        assert_eq!(re.spec(), plan.spec());
    }

    #[test]
    fn actions_derive_from_sites() {
        assert_eq!(FaultPlan::action_for("explore"), FaultAction::Panic);
        assert_eq!(FaultPlan::action_for("deadline"), FaultAction::Deadline);
        assert_eq!(FaultPlan::action_for("live_bytes"), FaultAction::LiveBytes);
        assert_eq!(
            FaultPlan::action_for("store.save.mid_tmp"),
            FaultAction::IoError
        );
    }

    #[test]
    fn maybe_helpers() {
        let plan = FaultPlan::parse("store.save@1,explore:r@1").unwrap();
        assert!(maybe_io(Some(&plan), "store.save").is_err());
        assert!(maybe_io(Some(&plan), "store.save").is_ok());
        assert!(maybe_io(None, "store.save").is_ok());
        let caught = std::panic::catch_unwind(|| maybe_panic(Some(&plan), "explore", "r"));
        let msg = *caught.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, "fault injected: explore:r");
        maybe_panic(Some(&plan), "explore", "r"); // hit 2: no fire
        maybe_panic(None, "explore", "r");
    }
}
