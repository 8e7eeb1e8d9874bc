//! Certificates, signing identities, and the MSP validation logic.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

use fabricsim_crypto::{sha256, Hash256, KeyPair, PublicKey, Signature, VerifyingKey};
use fabricsim_types::encode::Encoder;
use fabricsim_types::Principal;

use crate::ca::CaRoot;

/// An enrolment certificate: a principal bound to a public key, signed by the
/// issuing CA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    /// The certified principal (org + role).
    pub subject: Principal,
    /// A human-readable common name (e.g. `peer0`).
    pub common_name: String,
    /// The subject's public key.
    pub public_key: PublicKey,
    /// Name of the issuing CA.
    pub issuer: String,
    /// CA signature over the to-be-signed bytes.
    pub ca_signature: Signature,
}

impl Certificate {
    /// The bytes the CA signs.
    pub fn tbs_bytes(
        subject: &Principal,
        common_name: &str,
        public_key: PublicKey,
        issuer: &str,
    ) -> Vec<u8> {
        let mut e = Encoder::new("fabricsim-cert");
        subject.encode_into(&mut e);
        e.str(common_name).u64(public_key.element()).str(issuer);
        e.finish()
    }
}

/// A private signing identity: a certificate plus its secret key.
#[derive(Debug, Clone)]
pub struct SigningIdentity {
    certificate: Certificate,
    keypair: KeyPair,
}

impl SigningIdentity {
    pub(crate) fn new(certificate: Certificate, keypair: KeyPair) -> Self {
        debug_assert_eq!(certificate.public_key, keypair.public);
        SigningIdentity {
            certificate,
            keypair,
        }
    }

    /// The public certificate.
    pub fn certificate(&self) -> &Certificate {
        &self.certificate
    }

    /// The identity's principal.
    pub fn principal(&self) -> &Principal {
        &self.certificate.subject
    }

    /// Signs arbitrary bytes under this identity.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.keypair.sign(message)
    }
}

/// Errors the MSP can report while validating identities or signatures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IdentityError {
    /// The certificate was not issued by the trusted CA (bad CA signature or
    /// wrong issuer name).
    UntrustedCertificate,
    /// The signature did not verify under the certificate's public key.
    BadSignature,
}

impl fmt::Display for IdentityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IdentityError::UntrustedCertificate => {
                f.write_str("certificate not issued by a trusted CA")
            }
            IdentityError::BadSignature => f.write_str("signature verification failed"),
        }
    }
}

impl Error for IdentityError {}

/// Most certificates an [`Msp`] remembers as verified. A channel's committer
/// sees a handful of client identities; 64 covers that with room to spare
/// and bounds the memory at 2 KiB of key table and a certificate per entry.
const VERIFIED_CERTS_MAX: usize = 64;

/// A certificate this MSP has verified, with the expanded form of its key —
/// built once, when the CA signature was checked, and used for every
/// signature the identity presents while the entry lives. Shared so a
/// verifier takes it out of the lock without copying the table.
type VerifiedIdentity = (Certificate, Arc<VerifyingKey>);

/// A membership service provider: holds the CA root of trust and validates
/// certificates and signatures presented by remote parties.
///
/// The CA signature on a certificate is verified the first time this MSP is
/// shown those exact contents; the certificate is then remembered (Fabric's
/// MSP identity cache) together with its expanded key, and later
/// presentations are accepted by field-for-field comparison with a
/// remembered one. A certificate that differs in any field — subject, name,
/// key, issuer or CA signature — equals none of them and takes the full
/// check; one that fails it is never remembered. The set is bounded, oldest
/// out first (an evicted entry takes its expanded key with it), behind a
/// lock so the pooled VSCC workers share it. A clone starts with an empty
/// set: it trusts the same root and nothing else.
#[derive(Debug)]
pub struct Msp {
    root: CaRoot,
    /// The root's key, expanded: every first presentation verifies under it.
    root_key: VerifyingKey,
    verified: Mutex<VecDeque<VerifiedIdentity>>,
}

impl Clone for Msp {
    fn clone(&self) -> Self {
        Msp {
            root: self.root.clone(),
            root_key: self.root_key.clone(),
            verified: Mutex::new(VecDeque::new()),
        }
    }
}

impl Msp {
    /// Builds an MSP trusting the given CA root.
    pub fn new(root: CaRoot) -> Self {
        Msp {
            root_key: VerifyingKey::new(root.public_key),
            root,
            verified: Mutex::new(VecDeque::new()),
        }
    }

    /// Checks that a certificate was issued by the trusted CA.
    ///
    /// # Errors
    /// [`IdentityError::UntrustedCertificate`] if the issuer or CA signature
    /// is wrong.
    pub fn validate_certificate(&self, cert: &Certificate) -> Result<(), IdentityError> {
        self.verified_key(cert).map(drop)
    }

    /// [`Msp::validate_certificate`], returning the certificate's expanded
    /// key: the remembered one, or one built now and remembered. A verifier
    /// checking many signatures by one identity resolves the key once here
    /// and verifies each under it:
    /// `verified_key(c)?.verify_digest(d, s)` is [`Msp::verify_digest`].
    ///
    /// # Errors
    /// [`IdentityError::UntrustedCertificate`] if the issuer or CA signature
    /// is wrong.
    pub fn verified_key(&self, cert: &Certificate) -> Result<Arc<VerifyingKey>, IdentityError> {
        // Entries are only ever pushed whole and popped whole, so the set is
        // valid even if a holder of the lock panicked.
        let known = |set: &VecDeque<VerifiedIdentity>| {
            set.iter()
                .find(|(c, _)| c == cert)
                .map(|(_, key)| Arc::clone(key))
        };
        if let Some(key) = known(&self.verified.lock().unwrap_or_else(PoisonError::into_inner)) {
            return Ok(key);
        }
        if cert.issuer != self.root.name {
            return Err(IdentityError::UntrustedCertificate);
        }
        let tbs = Certificate::tbs_bytes(
            &cert.subject,
            &cert.common_name,
            cert.public_key,
            &cert.issuer,
        );
        if !self
            .root_key
            .verify_digest(&sha256(&tbs), &cert.ca_signature)
        {
            return Err(IdentityError::UntrustedCertificate);
        }
        let key = Arc::new(VerifyingKey::new(cert.public_key));
        let mut set = self.verified.lock().unwrap_or_else(PoisonError::into_inner);
        // Another worker may have verified the same certificate meanwhile.
        if let Some(key) = known(&set) {
            return Ok(key);
        }
        if set.len() == VERIFIED_CERTS_MAX {
            set.pop_front();
        }
        set.push_back((cert.clone(), Arc::clone(&key)));
        Ok(key)
    }

    /// Validates the certificate, then verifies `signature` over `message`
    /// under the certificate's key.
    ///
    /// # Errors
    /// [`IdentityError::UntrustedCertificate`] or [`IdentityError::BadSignature`].
    pub fn verify(
        &self,
        cert: &Certificate,
        message: &[u8],
        signature: &Signature,
    ) -> Result<(), IdentityError> {
        self.verify_digest(cert, &sha256(message), signature)
    }

    /// [`Msp::verify`] for a caller that already holds the message's SHA-256
    /// digest: `verify(c, m, s) == verify_digest(c, &sha256(m), s)`.
    ///
    /// # Errors
    /// [`IdentityError::UntrustedCertificate`] or [`IdentityError::BadSignature`].
    pub fn verify_digest(
        &self,
        cert: &Certificate,
        digest: &Hash256,
        signature: &Signature,
    ) -> Result<(), IdentityError> {
        if self.verified_key(cert)?.verify_digest(digest, signature) {
            Ok(())
        } else {
            Err(IdentityError::BadSignature)
        }
    }

    #[cfg(test)]
    fn remembered(&self) -> usize {
        self.verified
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CertificateAuthority;
    use fabricsim_types::OrgId;

    #[test]
    fn msp_accepts_issued_identity() {
        let ca = CertificateAuthority::new("ca", 1);
        let id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let msp = Msp::new(ca.root_of_trust());
        assert!(msp.validate_certificate(id.certificate()).is_ok());
        let sig = id.sign(b"hello");
        assert_eq!(msp.verify(id.certificate(), b"hello", &sig), Ok(()));
    }

    #[test]
    fn msp_rejects_wrong_message() {
        let ca = CertificateAuthority::new("ca", 1);
        let id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let msp = Msp::new(ca.root_of_trust());
        let sig = id.sign(b"hello");
        assert_eq!(
            msp.verify(id.certificate(), b"bye", &sig),
            Err(IdentityError::BadSignature)
        );
    }

    #[test]
    fn msp_rejects_foreign_ca() {
        let ca = CertificateAuthority::new("ca", 1);
        let rogue = CertificateAuthority::new("rogue", 2);
        let id = rogue.enroll(Principal::peer(OrgId(1)), "peer0");
        let msp = Msp::new(ca.root_of_trust());
        assert_eq!(
            msp.validate_certificate(id.certificate()),
            Err(IdentityError::UntrustedCertificate)
        );
    }

    #[test]
    fn msp_rejects_tampered_subject() {
        let ca = CertificateAuthority::new("ca", 1);
        let id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let msp = Msp::new(ca.root_of_trust());
        let mut cert = id.certificate().clone();
        cert.subject = Principal::peer(OrgId(9)); // claim another org
        assert_eq!(
            msp.validate_certificate(&cert),
            Err(IdentityError::UntrustedCertificate)
        );
    }

    #[test]
    fn msp_rejects_swapped_public_key() {
        // Keep the CA signature but swap in another identity's key: the
        // signature no longer covers the to-be-signed bytes.
        let ca = CertificateAuthority::new("ca", 1);
        let a = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let b = ca.enroll(Principal::peer(OrgId(2)), "peer1");
        let msp = Msp::new(ca.root_of_trust());
        let mut cert = a.certificate().clone();
        cert.public_key = b.certificate().public_key;
        assert_eq!(
            msp.validate_certificate(&cert),
            Err(IdentityError::UntrustedCertificate)
        );
    }

    #[test]
    fn msp_rejects_renamed_common_name() {
        let ca = CertificateAuthority::new("ca", 1);
        let id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let msp = Msp::new(ca.root_of_trust());
        let mut cert = id.certificate().clone();
        cert.common_name = "peer99".into();
        assert_eq!(
            msp.validate_certificate(&cert),
            Err(IdentityError::UntrustedCertificate)
        );
    }

    #[test]
    fn genuine_certificate_is_remembered_and_altered_copies_are_not_accepted() {
        let ca = CertificateAuthority::new("ca", 1);
        let id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let other = ca.enroll(Principal::peer(OrgId(2)), "peer1");
        let msp = Msp::new(ca.root_of_trust());
        let genuine = id.certificate();
        assert_eq!(msp.remembered(), 0);
        for _ in 0..3 {
            assert_eq!(msp.validate_certificate(genuine), Ok(()));
            assert_eq!(msp.remembered(), 1, "one entry however often it is shown");
        }
        // With the genuine certificate remembered, every altered copy must
        // still take — and fail — the full check.
        let altered = |f: &dyn Fn(&mut Certificate)| {
            let mut c = genuine.clone();
            f(&mut c);
            c
        };
        let copies = [
            altered(&|c| c.subject = Principal::peer(OrgId(9))),
            altered(&|c| c.subject.role = "admin".into()),
            altered(&|c| c.common_name = "peer99".into()),
            altered(&|c| c.public_key = other.certificate().public_key),
            altered(&|c| c.issuer = "other-ca".into()),
            altered(&|c| c.ca_signature.e ^= 1),
            altered(&|c| c.ca_signature.s ^= 1),
            altered(&|c| c.ca_signature = other.certificate().ca_signature),
        ];
        for bad in &copies {
            assert_ne!(bad, genuine);
            assert_eq!(
                msp.validate_certificate(bad),
                Err(IdentityError::UntrustedCertificate),
                "{bad:?}"
            );
            let sig = id.sign(b"m");
            assert_eq!(
                msp.verify(bad, b"m", &sig),
                Err(IdentityError::UntrustedCertificate)
            );
        }
        assert_eq!(msp.remembered(), 1, "a rejected certificate is never kept");
        // And the remembered one still answers for signatures correctly.
        assert_eq!(msp.verify(genuine, b"m", &id.sign(b"m")), Ok(()));
        assert_eq!(
            msp.verify(genuine, b"m", &id.sign(b"n")),
            Err(IdentityError::BadSignature)
        );
    }

    #[test]
    fn rogue_ca_certificates_are_never_remembered() {
        let ca = CertificateAuthority::new("ca", 1);
        let rogue = CertificateAuthority::new("rogue", 2);
        let msp = Msp::new(ca.root_of_trust());
        let id = rogue.enroll(Principal::peer(OrgId(1)), "peer0");
        let mut spoofed = id.certificate().clone();
        spoofed.issuer = "ca".into();
        for _ in 0..2 {
            for cert in [id.certificate(), &spoofed] {
                assert_eq!(
                    msp.validate_certificate(cert),
                    Err(IdentityError::UntrustedCertificate)
                );
            }
        }
        assert_eq!(msp.remembered(), 0);
    }

    #[test]
    fn remembered_set_is_bounded() {
        let ca = CertificateAuthority::new("ca", 1);
        let msp = Msp::new(ca.root_of_trust());
        let ids: Vec<_> = (0..10 * VERIFIED_CERTS_MAX)
            .map(|i| ca.enroll(Principal::peer(OrgId(i as u32)), &format!("peer{i}")))
            .collect();
        // The first identity's expanded key, watched without keeping it alive.
        let first_key = Arc::downgrade(&msp.verified_key(ids[0].certificate()).unwrap());
        assert_eq!(
            first_key.upgrade().map(|k| k.public_key()),
            Some(ids[0].certificate().public_key)
        );
        for id in &ids {
            assert_eq!(msp.validate_certificate(id.certificate()), Ok(()));
            assert!(msp.remembered() <= VERIFIED_CERTS_MAX);
        }
        assert_eq!(msp.remembered(), VERIFIED_CERTS_MAX);
        assert!(
            first_key.upgrade().is_none(),
            "an evicted certificate takes its expanded key with it"
        );
        // Evicted or not, every genuine certificate still validates.
        for id in [&ids[0], &ids[ids.len() - 1]] {
            assert_eq!(msp.validate_certificate(id.certificate()), Ok(()));
        }
    }

    #[test]
    fn a_clone_verifies_independently() {
        let ca = CertificateAuthority::new("ca", 1);
        let rogue = CertificateAuthority::new("rogue", 2);
        let id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let msp = Msp::new(ca.root_of_trust());
        assert_eq!(msp.validate_certificate(id.certificate()), Ok(()));
        let clone = msp.clone();
        assert_eq!(
            clone.remembered(),
            0,
            "a clone inherits the root, not the set"
        );
        assert_eq!(clone.validate_certificate(id.certificate()), Ok(()));
        assert_eq!(clone.remembered(), 1);
        assert_eq!(
            clone.validate_certificate(rogue.enroll(Principal::peer(OrgId(1)), "p").certificate()),
            Err(IdentityError::UntrustedCertificate)
        );
        assert_eq!(msp.remembered(), 1, "and leaves the original's alone");
    }

    #[test]
    fn remembered_set_is_shared_by_concurrent_verifiers() {
        let ca = CertificateAuthority::new("ca", 1);
        let msp = Msp::new(ca.root_of_trust());
        let ids: Vec<_> = (0..4)
            .map(|i| ca.enroll(Principal::peer(OrgId(i)), &format!("peer{i}")))
            .collect();
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        for id in &ids {
                            let sig = id.sign(b"m");
                            assert_eq!(msp.verify(id.certificate(), b"m", &sig), Ok(()));
                        }
                    }
                });
            }
        });
        assert_eq!(
            msp.remembered(),
            ids.len(),
            "no duplicates under contention"
        );
    }

    #[test]
    fn message_and_digest_entry_points_agree() {
        let ca = CertificateAuthority::new("ca", 1);
        let id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let msp = Msp::new(ca.root_of_trust());
        let sig = id.sign(b"hello");
        for msg in [&b"hello"[..], b"bye"] {
            assert_eq!(
                msp.verify(id.certificate(), msg, &sig),
                msp.verify_digest(id.certificate(), &sha256(msg), &sig)
            );
        }
    }

    #[test]
    fn identity_errors_display_as_prose() {
        assert_eq!(
            IdentityError::UntrustedCertificate.to_string(),
            "certificate not issued by a trusted CA"
        );
        assert_eq!(
            IdentityError::BadSignature.to_string(),
            "signature verification failed"
        );
    }

    #[test]
    fn msp_rejects_spoofed_issuer_name() {
        let ca = CertificateAuthority::new("ca", 1);
        let rogue = CertificateAuthority::new("rogue", 2);
        let id = rogue.enroll(Principal::peer(OrgId(1)), "peer0");
        let msp = Msp::new(ca.root_of_trust());
        let mut cert = id.certificate().clone();
        cert.issuer = "ca".into(); // claim the trusted issuer without its signature
        assert_eq!(
            msp.validate_certificate(&cert),
            Err(IdentityError::UntrustedCertificate)
        );
    }
}
