//! Memory-leak checker — the paper's `FSM_ML` (Table 2) with an explicit
//! escape refinement.
//!
//! ```text
//! S = {S0, SNF, SF, SML}
//! Σ = {malloc, free, ret}
//!   S0  --malloc-->  SNF
//!   SNF --free-->    SF
//!   SNF --ret-->     SML  (possible bug!)
//! ```
//!
//! The paper's FSM reports at `ret` while the object is not freed; its case
//! study (Fig. 12c — RIOT's `make_message` leaking on the `vsnprintf`
//! error path) implies ownership transfer is exempt. This implementation
//! makes that explicit with two extra states:
//!
//! * `ESCAPED` — the pointer was stored into memory or passed to an opaque
//!   callee; ownership left the analysis' view, never reported.
//! * `RETURNED` — the object is handed to the caller via `return`; the
//!   path explorer *re-owns* it in the caller's frame, so a caller that
//!   drops it still produces a leak report.
//!
//! `ret` is evaluated per *function frame*: when a frame returns, every
//! heap object allocated in it that is still `SNF` leaks.

use crate::checkers::BugKind;
use crate::typestate::{
    BranchEvent, Checker, FrameEndEvent, FsmSpec, StateEntry, TrackCtx, UpdateInfo,
};
use pata_ir::InstKind;

/// Not freed.
pub const S_NF: u8 = 1;
/// Freed.
pub const S_F: u8 = 2;
/// Stored into memory / passed to an opaque callee.
pub const S_ESCAPED: u8 = 3;
/// Returned to the caller (re-owned by the explorer).
pub const S_RETURNED: u8 = 4;
/// Reported leaked.
pub const S_ML: u8 = 5;

/// The ML checker.
#[derive(Debug, Default, Clone, Copy)]
pub struct MlChecker;

impl MlChecker {
    fn id(&self) -> u8 {
        BugKind::MemoryLeak.id()
    }
}

impl Checker for MlChecker {
    fn kind(&self) -> BugKind {
        BugKind::MemoryLeak
    }

    fn fsm(&self) -> FsmSpec {
        FsmSpec {
            states: vec!["S0", "SNF", "SF", "ESCAPED", "RETURNED", "SML"],
            events: vec!["malloc", "free", "ret", "escape"],
            bug_state: "SML",
        }
    }

    fn on_inst(&self, cx: &mut TrackCtx<'_>, inst: &InstKind, info: &UpdateInfo) {
        let id = self.id();
        if matches!(inst, InstKind::Move { .. }) {
            if let (crate::config::AliasMode::None, Some((dst, src))) = (cx.mode, info.move_pair) {
                cx.copy_state(id, dst, src);
            }
        }
        match inst {
            InstKind::Malloc { .. } => {
                if let Some(key) = info.dst_key {
                    cx.transition(id, key, S_NF, None);
                }
            }
            InstKind::Free { .. } => {
                if let Some(key) = info.free_key {
                    let origin = cx.state(id, key);
                    cx.transition(id, key, S_F, origin);
                }
            }
            InstKind::Store { .. } => {
                // Ownership escapes when an unfreed pointer is written into
                // memory (e.g. `dev->buf = p`).
                if let Some(key) = info.stored_val_key {
                    if let Some(entry) = cx.state(id, key) {
                        if entry.state == S_NF {
                            cx.transition(id, key, S_ESCAPED, Some(entry));
                        }
                    }
                }
            }
            InstKind::Call { .. } => {
                // Pointer arguments to opaque callees: conservative escape.
                for &key in &info.escape_keys {
                    if let Some(entry) = cx.state(id, key) {
                        if entry.state == S_NF {
                            cx.transition(id, key, S_ESCAPED, Some(entry));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_branch(&self, cx: &mut TrackCtx<'_>, ev: &BranchEvent) {
        // `if (p == NULL)` after `p = malloc(…)`: along the null branch the
        // allocation failed, so there is no object to leak.
        if !ev.lhs_is_pointer {
            return;
        }
        let (Some(key), Some(0)) = (ev.lhs.key(), ev.rhs.as_const()) else {
            return;
        };
        if ev.op == pata_ir::CmpOp::Eq {
            if let Some(entry) = cx.state(self.id(), key) {
                if entry.state == S_NF {
                    cx.transition(self.id(), key, S_F, Some(entry));
                }
            }
        }
    }

    fn on_frame_end(&self, cx: &mut TrackCtx<'_>, ev: &FrameEndEvent<'_>) {
        let id = self.id();
        // Ownership transfer via `return p;`.
        if let Some(key) = ev.ret_val_key {
            if let Some(entry) = cx.state(id, key) {
                if entry.state == S_NF {
                    cx.transition(id, key, S_RETURNED, Some(entry));
                }
            }
        }
        // Anything allocated in this frame that is still SNF leaks here.
        for obj in ev.heap_objects {
            if let Some(entry) = cx.state(id, obj.key) {
                if entry.state == S_NF {
                    let origin = StateEntry {
                        state: entry.state,
                        origin_id: obj.inst_id,
                    };
                    cx.report(BugKind::MemoryLeak, obj.key, origin, Vec::new());
                    cx.transition(id, obj.key, S_ML, Some(entry));
                }
            }
        }
    }
}
