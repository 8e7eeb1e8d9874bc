//! Certificates, signing identities, and the MSP validation logic.

use std::error::Error;
use std::fmt;

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

/// A membership service provider: holds the CA root of trust and validates
/// certificates and signatures presented by remote parties.
///
/// Every call checks the certificate's issuer and CA signature afresh;
/// nothing is remembered between calls. A peer resolves each client's
/// certificate once, when the client is registered, and keeps the key
/// this returns.
#[derive(Debug, Clone)]
pub struct Msp {
    root: CaRoot,
    /// The root's key, expanded: every CA signature verifies under it.
    root_key: VerifyingKey,
}

impl Msp {
    /// Builds an MSP trusting the given CA root.
    pub fn new(root: CaRoot) -> Self {
        Msp {
            root_key: VerifyingKey::new(root.public_key),
            root,
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
    /// key. A verifier checking many signatures by one identity resolves
    /// the key once here and verifies each under it:
    /// `verified_key(c)?.verify_digest(d, s)` is [`Msp::verify_digest`].
    ///
    /// # Errors
    /// [`IdentityError::UntrustedCertificate`] if the issuer or CA signature
    /// is wrong.
    pub fn verified_key(&self, cert: &Certificate) -> Result<VerifyingKey, IdentityError> {
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
        Ok(VerifyingKey::new(cert.public_key))
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
    fn genuine_certificate_is_verified_on_every_call_and_altered_copies_are_refused() {
        let ca = CertificateAuthority::new("ca", 1);
        let id = ca.enroll(Principal::peer(OrgId(1)), "peer0");
        let other = ca.enroll(Principal::peer(OrgId(2)), "peer1");
        let msp = Msp::new(ca.root_of_trust());
        let genuine = id.certificate();
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
        // The genuine certificate passes before, between and after the
        // altered copies, and each copy fails however often it is shown.
        for _ in 0..3 {
            assert_eq!(msp.validate_certificate(genuine), Ok(()));
            assert_eq!(
                msp.verified_key(genuine).map(|k| k.public_key()),
                Ok(genuine.public_key)
            );
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
            assert_eq!(msp.verify(genuine, b"m", &id.sign(b"m")), Ok(()));
            assert_eq!(
                msp.verify(genuine, b"m", &id.sign(b"n")),
                Err(IdentityError::BadSignature)
            );
        }
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
