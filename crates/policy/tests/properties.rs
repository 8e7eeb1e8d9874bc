//! Seeded properties of the endorsement-policy language (`rng::cases`).

use std::collections::BTreeSet;

use fabricsim_des::rng::cases;
use fabricsim_des::RngStream;
use fabricsim_policy::Policy;
use fabricsim_types::{OrgId, Principal};

/// A policy tree over orgs 1..=7, at most `depth` combinators deep, one to
/// three children per combinator (so at most 27 leaves at depth 3).
fn policy(rng: &mut RngStream, depth: u32) -> Policy {
    if depth == 0 || rng.chance(0.25) {
        return Policy::Principal(Principal::peer(OrgId(1 + rng.next_below(7) as u32)));
    }
    let children: Vec<Policy> = (0..1 + rng.next_below(3))
        .map(|_| policy(rng, depth - 1))
        .collect();
    match rng.next_below(3) {
        0 => Policy::And(children),
        1 => Policy::Or(children),
        _ => Policy::OutOf(1 + rng.pick_index(children.len()), children),
    }
}

fn orgs_subset(mask: u8) -> Vec<Principal> {
    (0..8)
        .filter(|b| mask & (1 << b) != 0)
        .map(|b| Principal::peer(OrgId(b as u32 + 1)))
        .collect()
}

#[test]
fn display_parse_roundtrip() {
    cases("display_parse_roundtrip", 2_000, |rng| {
        let policy = policy(rng, 3);
        let parsed: Policy = policy.to_string().parse().expect("rendered policy parses");
        assert_eq!(parsed, policy);
    });
}

#[test]
fn satisfaction_is_monotone() {
    cases("satisfaction_is_monotone", 2_000, |rng| {
        let policy = policy(rng, 3);
        // Adding endorsers can never unsatisfy a policy.
        let (mask, extra) = (rng.next_u64() as u8, rng.next_u64() as u8);
        let small = orgs_subset(mask);
        let big = orgs_subset(mask | extra);
        if policy.is_satisfied_by(small.iter()) {
            assert!(policy.is_satisfied_by(big.iter()));
        }
    });
}

#[test]
fn minimal_sets_are_sufficient_and_minimal() {
    cases("minimal_sets_are_sufficient_and_minimal", 2_000, |rng| {
        let policy = policy(rng, 3);
        let sets = policy.minimal_satisfying_sets();
        assert!(!sets.is_empty(), "policies over principals are satisfiable");
        for set in &sets {
            assert!(
                policy.is_satisfied_by(set.iter()),
                "every minimal set satisfies"
            );
            // No proper subset satisfies.
            for drop in set.iter() {
                let smaller: BTreeSet<_> = set.iter().filter(|p| *p != drop).cloned().collect();
                assert!(
                    !policy.is_satisfied_by(smaller.iter()),
                    "dropping {drop} from a minimal set must unsatisfy"
                );
            }
        }
    });
}

#[test]
fn min_endorsements_matches_minimal_sets() {
    cases("min_endorsements_matches_minimal_sets", 2_000, |rng| {
        let policy = policy(rng, 3);
        let sets = policy.minimal_satisfying_sets();
        let min = sets.iter().map(BTreeSet::len).min().expect("satisfiable");
        assert_eq!(policy.min_endorsements(), min);
    });
}

#[test]
fn full_principal_set_always_satisfies() {
    cases("full_principal_set_always_satisfies", 2_000, |rng| {
        let policy = policy(rng, 3);
        let everyone = policy.principals();
        assert!(policy.is_satisfied_by(everyone.iter()));
    });
}

#[test]
fn empty_set_satisfies_nothing() {
    cases("empty_set_satisfies_nothing", 2_000, |rng| {
        let policy = policy(rng, 3);
        assert!(!policy.is_satisfied_by([].iter()));
    });
}

/// The reference semantics `is_satisfied_by` scans its way to: the endorsers
/// collected into a set, every leaf a membership test.
fn satisfied_by_set(policy: &Policy, endorsers: &BTreeSet<&Principal>) -> bool {
    match policy {
        Policy::Principal(p) => endorsers.contains(p),
        Policy::And(cs) => cs.iter().all(|c| satisfied_by_set(c, endorsers)),
        Policy::Or(cs) => cs.iter().any(|c| satisfied_by_set(c, endorsers)),
        Policy::OutOf(k, cs) => cs.iter().filter(|c| satisfied_by_set(c, endorsers)).count() >= *k,
    }
}

#[test]
fn in_place_evaluation_matches_the_set_reference_on_multisets() {
    cases(
        "in_place_evaluation_matches_the_set_reference",
        2_000,
        |rng| {
            let policy = policy(rng, 3);
            // Up to 12 endorsements over orgs 1..=8 (one outside every policy),
            // so repeats are common and order is arbitrary.
            let endorsers: Vec<Principal> = (0..rng.next_below(13))
                .map(|_| Principal::peer(OrgId(1 + rng.next_below(8) as u32)))
                .collect();
            let set: BTreeSet<&Principal> = endorsers.iter().collect();
            assert_eq!(
                policy.is_satisfied_by(endorsers.iter()),
                satisfied_by_set(&policy, &set),
                "{policy} over {endorsers:?}"
            );
        },
    );
}
