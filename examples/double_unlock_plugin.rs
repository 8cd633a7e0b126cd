//! Registering an **out-of-tree checker plugin** through the open
//! [`CheckerRegistry`] API.
//!
//! Where `examples/custom_checker.rs` hands
//! `AnalysisSession::analyze_module_with` a ready-made checker list, this
//! example goes through the registry — the same construction path the
//! seven built-ins use: implement [`CheckerFactory`], `register()` it, and
//! every run of the session (`analyze`, `analyze_module`,
//! `collect_candidates`) runs the plugin alongside the configured
//! built-ins.
//!
//! The plugin is a strict double-unlock checker. The built-in lock checker
//! forgives a bare `unlock` in the start state (the lock may be caller
//! held); module-local spinlocks have no outside callers, so this plugin
//! flags *any* unlock not preceded by a lock on the same alias set.
//!
//! ```sh
//! cargo run --example double_unlock_plugin
//! ```

use pata::core::checkers::BugKind;
use pata::core::typestate::{Checker, FsmSpec, TrackCtx, UpdateInfo};
use pata::core::{AnalysisConfig, AnalysisSession, CheckerFactory, CheckerRegistry};
use pata_ir::InstKind;

const S_LOCKED: u8 = 1;
const S_UNLOCKED: u8 = 2;

/// FSM: S0 --unlock--> bug; S0/UNLOCKED --lock--> LOCKED;
///      LOCKED --unlock--> UNLOCKED; UNLOCKED --unlock--> bug.
struct StrictDoubleUnlockChecker;

impl Checker for StrictDoubleUnlockChecker {
    fn kind(&self) -> BugKind {
        // An example plugin piggybacks on an unused built-in slot rather
        // than extending BugKind; a production checker would add a variant.
        BugKind::DoubleLock
    }

    fn fsm(&self) -> FsmSpec {
        FsmSpec {
            states: vec!["S0", "LOCKED", "UNLOCKED", "SBUG"],
            events: vec!["lock", "unlock"],
            bug_state: "SBUG",
        }
    }

    fn on_inst(&self, cx: &mut TrackCtx<'_>, inst: &InstKind, info: &UpdateInfo) {
        let id = self.kind().id();
        let Some(key) = info.lock_key else { return };
        match inst {
            InstKind::Lock { .. } => {
                let prior = cx.state(id, key);
                cx.transition(id, key, S_LOCKED, prior);
            }
            InstKind::Unlock { .. } => match cx.state(id, key) {
                Some(entry) if entry.state == S_LOCKED => {
                    cx.transition(id, key, S_UNLOCKED, Some(entry));
                }
                prior => {
                    // Unlock in S0 or UNLOCKED: strict policy says bug.
                    if let Some(entry) = prior {
                        cx.report(self.kind(), key, entry, Vec::new());
                    }
                }
            },
            _ => {}
        }
    }
}

/// The factory the registry stores. Its id is not a built-in slug, so the
/// registry's selection policy always runs it. Public so the test suite can
/// register the same plugin.
pub struct StrictDoubleUnlockFactory;

impl CheckerFactory for StrictDoubleUnlockFactory {
    fn id(&self) -> &str {
        "strict-double-unlock"
    }

    fn description(&self) -> &str {
        "reports any unlock not preceded by a lock on the same alias set"
    }

    fn create(&self) -> Box<dyn Checker> {
        Box::new(StrictDoubleUnlockChecker)
    }
}

fn main() {
    let source = r#"
        struct dev { int lock; int count; };
        static void irq_bad(struct dev *d) {
            spin_lock(&d->lock);
            d->count = d->count + 1;
            spin_unlock(&d->lock);
            spin_unlock(&d->lock);          /* double unlock */
        }
        static void irq_good(struct dev *d) {
            spin_lock(&d->lock);
            d->count = d->count + 1;
            spin_unlock(&d->lock);
        }
        static struct irq_ops ops = { .h1 = irq_bad, .h2 = irq_good };
    "#;
    let module = pata::cc::compile_one("drivers/irq_demo.c", source).expect("valid mini-C");

    let mut registry = CheckerRegistry::with_builtins();
    registry
        .register(Box::new(StrictDoubleUnlockFactory))
        .expect("plugin id is free");
    println!("registered checkers: {:?}", registry.ids());

    // Select only the NPD built-in: the double-unlock report below can
    // therefore only come from the plugin, which runs regardless of the
    // `checkers` selection.
    let config = AnalysisConfig::builder()
        .checkers(vec![BugKind::NullPointerDeref])
        .build()
        .expect("valid config");
    let outcome = AnalysisSession::with_registry(config, registry).analyze_module(module);

    println!("\nplugin reports:");
    for r in &outcome.reports {
        println!("  `{}` line {}: {}", r.function, r.site_line, r.message);
    }
    assert_eq!(outcome.reports.len(), 1);
    assert_eq!(outcome.reports[0].function, "irq_bad");
    println!("\nA factory + register() = an out-of-tree checker, no core patch.");
}
