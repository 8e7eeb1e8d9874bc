//! Endorsement target selection from the channel policy.

use std::collections::BTreeSet;

use fabricsim_policy::Policy;
use fabricsim_types::Principal;

/// Chooses which endorsing peers to send each proposal to.
///
/// The selector enumerates the policy's minimal satisfying sets once, then
/// rotates through them round-robin. For `OR(n)` policies this spreads load
/// evenly over the `n` endorsers (one target per transaction); for `AND(x)`
/// there is a single minimal set containing all `x` principals, so every
/// transaction goes to all of them — exactly the asymmetry behind the paper's
/// Fig. 4 vs Fig. 5.
#[derive(Debug, Clone)]
pub struct TargetSelector {
    sets: Vec<Vec<Principal>>,
    cursor: usize,
}

impl TargetSelector {
    /// Builds a selector for a policy.
    ///
    /// # Panics
    /// Panics if the policy has no satisfying sets (unsatisfiable).
    pub fn new(policy: &Policy) -> Self {
        let sets: Vec<Vec<Principal>> = policy
            .minimal_satisfying_sets()
            .into_iter()
            .map(|s: BTreeSet<Principal>| s.into_iter().collect())
            .collect();
        assert!(!sets.is_empty(), "endorsement policy is unsatisfiable");
        TargetSelector { sets, cursor: 0 }
    }

    /// The next target set (rotates round-robin).
    pub fn next_targets(&mut self) -> &[Principal] {
        let set = &self.sets[self.cursor];
        self.cursor = (self.cursor + 1) % self.sets.len();
        set
    }

    /// Number of distinct minimal target sets.
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabricsim_types::OrgId;

    #[test]
    fn or_policy_rotates_singletons() {
        let mut sel = TargetSelector::new(&Policy::or_of_orgs(3));
        assert_eq!(sel.set_count(), 3);
        let seen: Vec<Principal> = (0..3).map(|_| sel.next_targets()[0].clone()).collect();
        let distinct: BTreeSet<_> = seen.iter().collect();
        assert_eq!(distinct.len(), 3, "all three endorsers used");
        // Fourth pick wraps around.
        assert_eq!(sel.next_targets()[0], seen[0]);
    }

    #[test]
    fn and_policy_pins_full_set() {
        let mut sel = TargetSelector::new(&Policy::and_of_orgs(5));
        assert_eq!(sel.set_count(), 1);
        let t = sel.next_targets().to_vec();
        assert_eq!(t.len(), 5);
        assert_eq!(sel.next_targets(), &t[..], "AND always targets everyone");
    }

    #[test]
    fn out_of_rotates_combinations() {
        let mut sel = TargetSelector::new(&Policy::k_of_n_orgs(2, 3));
        assert_eq!(sel.set_count(), 3); // C(3,2)
        let a = sel.next_targets().to_vec();
        let b = sel.next_targets().to_vec();
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "unsatisfiable")]
    fn unsatisfiable_policy_panics() {
        // OutOf(2) over one principal can never be satisfied.
        TargetSelector::new(&Policy::OutOf(
            2,
            vec![Policy::Principal(Principal::peer(OrgId(1)))],
        ));
    }
}
