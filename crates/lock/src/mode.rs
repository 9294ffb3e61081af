//! Lock modes and their compatibility.
//!
//! Three modes, one asymmetric matrix ([`LockMode::conflicts_with`]).  A
//! transaction that only reads takes [`LockMode::Shared`]; one that reads
//! a row it is about to write takes [`LockMode::Update`] at the read and
//! converts it to [`LockMode::Exclusive`] at the write; a blind write
//! takes Exclusive directly.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Lock modes: Read (Share), Update, and Write (Exclusive).
///
/// Shared and Exclusive are the Section 2.3 modes.  **Update** is the
/// classic asymmetric read-with-intent-to-write mode from the Gray
/// lock-granularity lineage the Critique builds on: a transaction that
/// will read an item and then write it takes U at the read instead of S,
/// which serialises would-be upgraders against each other *before* any of
/// them holds a read lock the others need — removing the S→X upgrade
/// deadlock entirely.  The U→X conversion then waits only for plain
/// Shared holders to drain, and the asymmetry (a held U admits no *new*
/// Shared requests) guarantees that drain terminates.
///
/// The variant order is the strength order: `Shared < Update <
/// Exclusive`, which is what [`LockMode::covers`] and the lock manager's
/// upgrade merge (`max`) rely on.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug, Serialize, Deserialize)]
pub enum LockMode {
    /// Read lock — compatible with other read locks and with a (single)
    /// update lock already held.
    Shared,
    /// Update lock — read permission plus the declared intent to upgrade
    /// to [`LockMode::Exclusive`].  Granted while Shared locks are held;
    /// conflicts with other Update and Exclusive locks; once held, blocks
    /// new Shared requests so the upgrade cannot be starved.
    Update,
    /// Write lock — conflicts with every other lock.
    Exclusive,
}

impl LockMode {
    /// Whether a *held* lock of mode `self` blocks a new request of mode
    /// `requested` by a different transaction on an overlapping target.
    ///
    /// The matrix is the standard asymmetric one for update-mode locks
    /// (held mode down, requested mode across):
    ///
    /// | held \ requested | S | U | X |
    /// |---|---|---|---|
    /// | **S** | ok | ok | conflict |
    /// | **U** | conflict | conflict | conflict |
    /// | **X** | conflict | conflict | conflict |
    ///
    /// The single asymmetric cell is U/S: a *requested* U is compatible
    /// with held S locks (an updater can announce itself while readers
    /// are active), but a *held* U refuses new S requests — otherwise a
    /// stream of arriving readers could starve the pending U→X upgrade
    /// forever.
    pub fn conflicts_with(&self, requested: LockMode) -> bool {
        !matches!(
            (self, requested),
            (LockMode::Shared, LockMode::Shared) | (LockMode::Shared, LockMode::Update)
        )
    }

    /// True if holding `self` is sufficient for a new request of `wanted`
    /// by the same transaction (Exclusive covers Update covers Shared).
    pub fn covers(&self, wanted: LockMode) -> bool {
        *self >= wanted
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockMode::Shared => write!(f, "S"),
            LockMode::Update => write!(f, "U"),
            LockMode::Exclusive => write!(f, "X"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        // Shared row: admits readers and an announcing updater.
        assert!(!Shared.conflicts_with(Shared));
        assert!(!Shared.conflicts_with(Update));
        assert!(Shared.conflicts_with(Exclusive));
        // Update row: the asymmetry — a held U admits nothing new.
        assert!(Update.conflicts_with(Shared));
        assert!(Update.conflicts_with(Update));
        assert!(Update.conflicts_with(Exclusive));
        // Exclusive row: conflicts with everything.
        assert!(Exclusive.conflicts_with(Shared));
        assert!(Exclusive.conflicts_with(Update));
        assert!(Exclusive.conflicts_with(Exclusive));
    }

    #[test]
    fn coverage() {
        use LockMode::*;
        assert!(Exclusive.covers(Shared));
        assert!(Exclusive.covers(Update));
        assert!(Exclusive.covers(Exclusive));
        assert!(Update.covers(Shared));
        assert!(Update.covers(Update));
        assert!(!Update.covers(Exclusive));
        assert!(Shared.covers(Shared));
        assert!(!Shared.covers(Update));
        assert!(!Shared.covers(Exclusive));
    }

    #[test]
    fn strength_order_backs_upgrade_merges() {
        assert!(LockMode::Shared < LockMode::Update);
        assert!(LockMode::Update < LockMode::Exclusive);
        assert_eq!(
            LockMode::Update.max(LockMode::Exclusive),
            LockMode::Exclusive
        );
    }

    #[test]
    fn display() {
        assert_eq!(LockMode::Shared.to_string(), "S");
        assert_eq!(LockMode::Update.to_string(), "U");
        assert_eq!(LockMode::Exclusive.to_string(), "X");
    }
}
