//! The policy AST and its evaluation semantics.

use std::collections::BTreeSet;
use std::fmt;

use fabricsim_types::{OrgId, Principal};

/// An endorsement policy: a Boolean tree over principals.
///
/// `AND` requires all children, `OR` requires any child, and `OutOf(k, …)`
/// requires at least `k` children — Fabric's `NOutOf`. `AND` and `OR` are the
/// special cases `OutOf(n)` and `OutOf(1)` but are kept as distinct variants
/// because they round-trip through the textual form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Satisfied by an endorsement from this principal.
    Principal(Principal),
    /// Satisfied when every child policy is satisfied.
    And(Vec<Policy>),
    /// Satisfied when at least one child policy is satisfied.
    Or(Vec<Policy>),
    /// Satisfied when at least `k` child policies are satisfied.
    OutOf(usize, Vec<Policy>),
}

impl Policy {
    /// `OR('Org1.peer', …, 'OrgN.peer')` — the paper's `OR-n` policy.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn or_of_orgs(n: u32) -> Policy {
        assert!(n > 0, "policy needs at least one principal");
        Policy::Or(
            (1..=n)
                .map(|i| Policy::Principal(Principal::peer(OrgId(i))))
                .collect(),
        )
    }

    /// `AND('Org1.peer', …, 'OrgX.peer')` — the paper's `AND-x` policy.
    ///
    /// # Panics
    /// Panics if `x == 0`.
    pub fn and_of_orgs(x: u32) -> Policy {
        assert!(x > 0, "policy needs at least one principal");
        Policy::And(
            (1..=x)
                .map(|i| Policy::Principal(Principal::peer(OrgId(i))))
                .collect(),
        )
    }

    /// `OutOf(k, 'Org1.peer', …, 'OrgN.peer')` — "k of n" policies.
    ///
    /// # Panics
    /// Panics if `k == 0`, `n == 0` or `k > n`.
    pub fn k_of_n_orgs(k: usize, n: u32) -> Policy {
        assert!(
            k > 0 && n > 0 && k <= n as usize,
            "invalid k-of-n: {k} of {n}"
        );
        Policy::OutOf(
            k,
            (1..=n)
                .map(|i| Policy::Principal(Principal::peer(OrgId(i))))
                .collect(),
        )
    }

    /// True when the multiset of endorsing principals satisfies the policy.
    /// Only membership counts: a principal endorsing twice is one principal.
    ///
    /// The endorsers are scanned in place, once per principal leaf, through
    /// clones of the iterator: a handful of endorsers needs no set, and no
    /// evaluation allocates.
    pub fn is_satisfied_by<'a, I>(&self, endorsers: I) -> bool
    where
        I: IntoIterator<Item = &'a Principal>,
        I::IntoIter: Clone,
    {
        self.eval(&endorsers.into_iter())
    }

    fn eval<'a, I>(&self, endorsers: &I) -> bool
    where
        I: Iterator<Item = &'a Principal> + Clone,
    {
        match self {
            Policy::Principal(p) => endorsers.clone().any(|e| e == p),
            Policy::And(children) => children.iter().all(|c| c.eval(endorsers)),
            Policy::Or(children) => children.iter().any(|c| c.eval(endorsers)),
            Policy::OutOf(k, children) => {
                children.iter().filter(|c| c.eval(endorsers)).count() >= *k
            }
        }
    }

    /// All principals mentioned anywhere in the policy, deduplicated, in
    /// first-mention order.
    pub fn principals(&self) -> Vec<Principal> {
        let mut out = Vec::new();
        self.collect_principals(&mut out);
        out
    }

    fn collect_principals(&self, out: &mut Vec<Principal>) {
        match self {
            Policy::Principal(p) => {
                if !out.contains(p) {
                    out.push(p.clone());
                }
            }
            Policy::And(cs) | Policy::Or(cs) | Policy::OutOf(_, cs) => {
                for c in cs {
                    c.collect_principals(out);
                }
            }
        }
    }

    /// Enumerates the *minimal* satisfying sets of principals: every set is
    /// sufficient, and no proper subset of any returned set is.
    ///
    /// Clients use this to pick endorsement targets; the first (or a
    /// round-robin-rotated) minimal set is what gets sent proposals.
    pub fn minimal_satisfying_sets(&self) -> Vec<BTreeSet<Principal>> {
        let mut sets = self.satisfying_sets();
        // Drop any set that strictly contains another.
        sets.sort_by_key(|s| s.len());
        let mut minimal: Vec<BTreeSet<Principal>> = Vec::new();
        for s in sets {
            if !minimal.iter().any(|m| m.is_subset(&s)) {
                minimal.push(s);
            }
        }
        minimal
    }

    fn satisfying_sets(&self) -> Vec<BTreeSet<Principal>> {
        match self {
            Policy::Principal(p) => vec![BTreeSet::from([p.clone()])],
            Policy::Or(children) => children.iter().flat_map(|c| c.satisfying_sets()).collect(),
            Policy::And(children) => {
                let mut acc: Vec<BTreeSet<Principal>> = vec![BTreeSet::new()];
                for c in children {
                    let child_sets = c.satisfying_sets();
                    let mut next = Vec::with_capacity(acc.len() * child_sets.len());
                    for a in &acc {
                        for cs in &child_sets {
                            let mut u = a.clone();
                            u.extend(cs.iter().cloned());
                            next.push(u);
                        }
                    }
                    acc = next;
                }
                acc
            }
            Policy::OutOf(k, children) => {
                // Union over all k-subsets of children of the AND of that subset.
                let mut out = Vec::new();
                let n = children.len();
                let mut idx: Vec<usize> = (0..*k).collect();
                if *k == 0 || *k > n {
                    return if *k == 0 {
                        vec![BTreeSet::new()]
                    } else {
                        Vec::new()
                    };
                }
                loop {
                    let subset: Vec<Policy> = idx.iter().map(|&i| children[i].clone()).collect();
                    out.extend(Policy::And(subset).satisfying_sets());
                    // Next combination.
                    let mut i = *k;
                    loop {
                        if i == 0 {
                            return out;
                        }
                        i -= 1;
                        if idx[i] != i + n - *k {
                            break;
                        }
                    }
                    idx[i] += 1;
                    for j in i + 1..*k {
                        idx[j] = idx[j - 1] + 1;
                    }
                }
            }
        }
    }

    /// The size of the smallest satisfying endorsement set. This is the number
    /// of endorsement signatures VSCC must verify on the cheapest valid
    /// transaction — the quantity that makes `AND` validation slower than `OR`.
    pub fn min_endorsements(&self) -> usize {
        self.minimal_satisfying_sets()
            .iter()
            .map(|s| s.len())
            .min()
            .unwrap_or(0)
    }

    /// Validates structural sanity: no empty operator bodies, `OutOf` bounds.
    ///
    /// # Errors
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        match self {
            Policy::Principal(_) => Ok(()),
            Policy::And(cs) | Policy::Or(cs) => {
                if cs.is_empty() {
                    return Err("operator with no operands".into());
                }
                cs.iter().try_for_each(|c| c.validate())
            }
            Policy::OutOf(k, cs) => {
                if cs.is_empty() {
                    return Err("OutOf with no operands".into());
                }
                if *k == 0 || *k > cs.len() {
                    return Err(format!("OutOf({k}) over {} operands", cs.len()));
                }
                cs.iter().try_for_each(|c| c.validate())
            }
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn join(f: &mut fmt::Formatter<'_>, cs: &[Policy]) -> fmt::Result {
            for (i, c) in cs.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{c}")?;
            }
            Ok(())
        }
        match self {
            Policy::Principal(p) => write!(f, "'{p}'"),
            Policy::And(cs) => {
                f.write_str("AND(")?;
                join(f, cs)?;
                f.write_str(")")
            }
            Policy::Or(cs) => {
                f.write_str("OR(")?;
                join(f, cs)?;
                f.write_str(")")
            }
            Policy::OutOf(k, cs) => {
                write!(f, "OutOf({k},")?;
                join(f, cs)?;
                f.write_str(")")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(n: u32) -> Principal {
        Principal::peer(OrgId(n))
    }

    #[test]
    fn or_satisfied_by_any_single() {
        let pol = Policy::or_of_orgs(3);
        assert!(pol.is_satisfied_by([p(2)].iter()));
        assert!(!pol.is_satisfied_by([p(4)].iter()));
        assert!(!pol.is_satisfied_by([].iter()));
        assert_eq!(pol.min_endorsements(), 1);
    }

    #[test]
    fn and_requires_all() {
        let pol = Policy::and_of_orgs(3);
        assert!(pol.is_satisfied_by([p(1), p(2), p(3)].iter()));
        assert!(!pol.is_satisfied_by([p(1), p(2)].iter()));
        assert_eq!(pol.min_endorsements(), 3);
    }

    #[test]
    fn out_of_k() {
        let pol = Policy::k_of_n_orgs(2, 4);
        assert!(pol.is_satisfied_by([p(1), p(3)].iter()));
        assert!(!pol.is_satisfied_by([p(1)].iter()));
        assert_eq!(pol.min_endorsements(), 2);
        assert_eq!(pol.minimal_satisfying_sets().len(), 6); // C(4,2)
    }

    #[test]
    fn nested_policies() {
        // AND(Org1, OR(Org2, Org3))
        let pol = Policy::And(vec![
            Policy::Principal(p(1)),
            Policy::Or(vec![Policy::Principal(p(2)), Policy::Principal(p(3))]),
        ]);
        assert!(pol.is_satisfied_by([p(1), p(3)].iter()));
        assert!(!pol.is_satisfied_by([p(2), p(3)].iter()));
        let sets = pol.minimal_satisfying_sets();
        assert_eq!(sets.len(), 2);
        assert!(sets.iter().all(|s| s.contains(&p(1)) && s.len() == 2));
        assert_eq!(pol.min_endorsements(), 2);
    }

    #[test]
    fn minimal_sets_drop_supersets() {
        // OR(Org1, AND(Org1, Org2)) — the AND branch is a superset of {Org1}.
        let pol = Policy::Or(vec![
            Policy::Principal(p(1)),
            Policy::And(vec![Policy::Principal(p(1)), Policy::Principal(p(2))]),
        ]);
        let sets = pol.minimal_satisfying_sets();
        assert_eq!(sets, vec![BTreeSet::from([p(1)])]);
    }

    #[test]
    fn principals_dedup_in_order() {
        let pol = Policy::Or(vec![
            Policy::Principal(p(2)),
            Policy::And(vec![Policy::Principal(p(1)), Policy::Principal(p(2))]),
        ]);
        assert_eq!(pol.principals(), vec![p(2), p(1)]);
    }

    #[test]
    fn display_form() {
        assert_eq!(
            Policy::or_of_orgs(2).to_string(),
            "OR('Org1.peer','Org2.peer')"
        );
        assert_eq!(
            Policy::k_of_n_orgs(2, 3).to_string(),
            "OutOf(2,'Org1.peer','Org2.peer','Org3.peer')"
        );
    }

    #[test]
    fn validate_catches_bad_shapes() {
        assert!(Policy::And(vec![]).validate().is_err());
        assert!(Policy::OutOf(0, vec![Policy::Principal(p(1))])
            .validate()
            .is_err());
        assert!(Policy::OutOf(3, vec![Policy::Principal(p(1))])
            .validate()
            .is_err());
        assert!(Policy::k_of_n_orgs(1, 1).validate().is_ok());
    }

    #[test]
    fn extra_endorsements_do_not_hurt() {
        let pol = Policy::and_of_orgs(2);
        assert!(pol.is_satisfied_by([p(1), p(2), p(9)].iter()));
    }
}
