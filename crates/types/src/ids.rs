//! Identifiers: organizations, nodes, channels, transactions, principals.

use std::fmt;
use std::sync::Arc;

use fabricsim_crypto::Hash256;

use crate::encode::Encoder;

/// An organization (consortium member) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OrgId(pub u32);

/// A membership-service-provider identifier; one per organization.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MspId(pub String);

/// A node in the network: peer, orderer, client pool, Kafka broker or
/// ZooKeeper replica. Node ids are globally unique across roles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A peer node (endorser and/or committer).
    Peer(u32),
    /// An ordering-service node (OSN).
    Orderer(u32),
    /// A client / workload-generator pool.
    Client(u32),
    /// A Kafka broker backing the Kafka ordering service.
    Broker(u32),
    /// A ZooKeeper ensemble member.
    ZooKeeper(u32),
}

impl NodeId {
    /// A stable string form usable as an RNG stream name or map key.
    pub fn label(&self) -> String {
        match self {
            NodeId::Peer(i) => format!("peer{i}"),
            NodeId::Orderer(i) => format!("orderer{i}"),
            NodeId::Client(i) => format!("client{i}"),
            NodeId::Broker(i) => format!("broker{i}"),
            NodeId::ZooKeeper(i) => format!("zk{i}"),
        }
    }

    /// The numeric index within the node's role.
    pub fn index(&self) -> u32 {
        match self {
            NodeId::Peer(i)
            | NodeId::Orderer(i)
            | NodeId::Client(i)
            | NodeId::Broker(i)
            | NodeId::ZooKeeper(i) => *i,
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// A client identity (a signing identity enrolled with the CA).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClientId(pub u32);

/// A channel: a private blockchain subnet with its own ledger.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub String);

impl ChannelId {
    /// The conventional default channel used by the experiments.
    pub fn default_channel() -> Self {
        ChannelId("mychannel".to_string())
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A transaction identifier: the hash of the creator identity and nonce,
/// exactly as Fabric derives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxId(pub Hash256);

impl TxId {
    /// A short prefix for logs.
    pub fn short(&self) -> String {
        self.0.short()
    }

    /// Writes [`TxId::short`] into `out` without building a `String`.
    ///
    /// # Errors
    /// Whatever `out` reports.
    pub fn write_short(&self, out: &mut impl fmt::Write) -> fmt::Result {
        self.0.write_short(out)
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_short(f)
    }
}

/// An endorsement-policy principal such as `Org1.peer` — the unit the policy
/// language quantifies over. Its role is shared, so a clone — one per
/// endorsement made, assembled or checked — copies a reference count, not a
/// string.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Principal {
    /// Owning organization.
    pub org: OrgId,
    /// Role within the organization (Fabric supports peer/member/admin; the
    /// experiments only distinguish `peer`).
    pub role: Arc<str>,
}

impl Principal {
    /// Convenience constructor for the ubiquitous `OrgN.peer` principal.
    pub fn peer(org: OrgId) -> Self {
        Principal {
            org,
            role: Arc::from("peer"),
        }
    }

    /// Parses `"Org1.peer"` into a principal.
    ///
    /// # Errors
    /// Returns `None` for anything not shaped like `Org<N>.<role>`.
    pub fn parse(s: &str) -> Option<Self> {
        Self::parse_with(s, |text| Arc::from(text))
    }

    /// [`Principal::parse`] with the role string made by `role` from its
    /// text, so a decoder can share one allocation per distinct role.
    pub(crate) fn parse_with(s: &str, role: impl FnOnce(&str) -> Arc<str>) -> Option<Self> {
        let (org_part, text) = s.split_once('.')?;
        let n: u32 = org_part.strip_prefix("Org")?.parse().ok()?;
        if text.is_empty() {
            return None;
        }
        Some(Principal {
            org: OrgId(n),
            role: role(text),
        })
    }
}

impl Principal {
    /// Appends the principal's `Display` form (`Org<N>.<role>`) to a canonical
    /// encoding as one string field, without allocating the string: signed
    /// bytes carry one principal per endorsement.
    pub fn encode_into(&self, e: &mut Encoder) {
        // Decimal digits of a u32, least significant last.
        let mut digits = [0u8; 10];
        let mut at = digits.len();
        let mut n = self.org.0;
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        e.concat(&[b"Org", &digits[at..], b".", self.role.as_bytes()]);
    }
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Org{}.{}", self.org.0, self.role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_labels_are_unique_across_roles() {
        let nodes = [
            NodeId::Peer(0),
            NodeId::Orderer(0),
            NodeId::Client(0),
            NodeId::Broker(0),
            NodeId::ZooKeeper(0),
        ];
        let labels: std::collections::HashSet<_> = nodes.iter().map(|n| n.label()).collect();
        assert_eq!(labels.len(), nodes.len());
        assert_eq!(NodeId::Peer(3).index(), 3);
        assert_eq!(NodeId::Peer(3).to_string(), "peer3");
    }

    #[test]
    fn principal_parse_roundtrip() {
        let p = Principal::parse("Org2.peer").unwrap();
        assert_eq!(p, Principal::peer(OrgId(2)));
        assert_eq!(p.to_string(), "Org2.peer");
        assert_eq!(&*Principal::parse("Org2.admin").unwrap().role, "admin");
    }

    #[test]
    fn principal_encoding_is_its_display_form() {
        for org in [0, 1, 9, 10, 99, 100, 4_294_967_295] {
            for role in ["peer", "admin", "x"] {
                let p = Principal {
                    org: OrgId(org),
                    role: role.into(),
                };
                let mut direct = Encoder::new("t");
                p.encode_into(&mut direct);
                let mut via_display = Encoder::new("t");
                via_display.str(&p.to_string());
                assert_eq!(direct.finish(), via_display.finish(), "{p}");
            }
        }
    }

    #[test]
    fn principal_parse_rejects_garbage() {
        for bad in ["", "Org1", "org1.peer", "OrgX.peer", "Org1.", ".peer"] {
            assert!(Principal::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn default_channel_name() {
        assert_eq!(ChannelId::default_channel().to_string(), "mychannel");
    }
}
