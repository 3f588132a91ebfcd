//! The SQL/KV security boundary (§3.2.3).
//!
//! "All operations performed by the SQL layer are mediated through the
//! KV/SQL boundary. At that boundary, an authorization component checks
//! incoming requests. The tenant SQL layer authenticates itself by means
//! of a unique TLS certificate. The KV authorization checks that all
//! requests performed by that identity target the specific portion of the
//! keyspace allocated to it."
//!
//! A [`TenantCert`] stands in for the mTLS client certificate: it is
//! unforgeable within the simulation (constructed only by the cluster's
//! certificate authority) and names exactly one tenant. The system tenant
//! (§3.2.4) bypasses keyspace checks — which is why production restricts
//! access to it so heavily.

use crdb_util::TenantId;

use crate::batch::{BatchRequest, KvError};
use crate::keys;

/// A tenant identity credential (mTLS certificate stand-in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCert {
    tenant: TenantId,
    /// Serial number, so certificates can be rotated/revoked.
    serial: u64,
}

impl TenantCert {
    /// The authenticated tenant.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// The certificate serial.
    pub fn serial(&self) -> u64 {
        self.serial
    }
}

/// The cluster certificate authority: the only issuer of [`TenantCert`]s.
#[derive(Debug, Default)]
pub struct CertAuthority {
    next_serial: u64,
    revoked: std::collections::BTreeSet<u64>,
}

impl CertAuthority {
    /// Creates a CA.
    pub fn new() -> Self {
        CertAuthority { next_serial: 1, revoked: Default::default() }
    }

    /// Issues a certificate for `tenant`.
    pub fn issue(&mut self, tenant: TenantId) -> TenantCert {
        let serial = self.next_serial;
        self.next_serial += 1;
        TenantCert { tenant, serial }
    }

    /// Revokes a certificate by serial.
    pub fn revoke(&mut self, serial: u64) {
        self.revoked.insert(serial);
    }

    /// Whether a certificate is currently valid.
    pub fn is_valid(&self, cert: &TenantCert) -> bool {
        cert.serial < self.next_serial && !self.revoked.contains(&cert.serial)
    }
}

/// Authorizes a batch at the KV boundary: the certificate must be valid,
/// the batch's claimed tenant must match the certificate, and every
/// request must target the tenant's keyspace segment. The system tenant
/// bypasses the keyspace check.
pub fn authorize(
    ca: &CertAuthority,
    cert: &TenantCert,
    batch: &BatchRequest,
) -> Result<(), KvError> {
    if !ca.is_valid(cert) {
        return Err(KvError::Unauthorized);
    }
    if batch.tenant != cert.tenant() {
        return Err(KvError::Unauthorized);
    }
    if cert.tenant().is_system() {
        return Ok(());
    }
    let tenant = cert.tenant();
    for req in &batch.requests {
        let ok = match batch.routing_span(req) {
            (start, Some(end)) => keys::span_in_tenant(tenant, start, end),
            (key, None) => keys::in_tenant_span(tenant, key),
        };
        if !ok {
            return Err(KvError::Unauthorized);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RequestKind;
    use crate::hlc::Timestamp;
    use crate::txn::TxnMeta;
    use bytes::Bytes;

    fn txn(anchor_key: Bytes) -> TxnMeta {
        TxnMeta { txn_id: 1, anchor_key, start_ts: Timestamp::ZERO, write_ts: Timestamp::ZERO }
    }

    fn batch(tenant: u64, requests: Vec<RequestKind>) -> BatchRequest {
        BatchRequest {
            tenant: TenantId(tenant),
            txn: txn(keys::make_key(TenantId(tenant), b"anchor")),
            deadline: crdb_util::Deadline::NONE,
            requests,
        }
    }

    #[test]
    fn own_keyspace_allowed() {
        let mut ca = CertAuthority::new();
        let cert = ca.issue(TenantId(5));
        let b = batch(5, vec![RequestKind::Get { key: keys::make_key(TenantId(5), b"k") }]);
        assert!(authorize(&ca, &cert, &b).is_ok());
    }

    #[test]
    fn cross_tenant_access_denied() {
        let mut ca = CertAuthority::new();
        let cert = ca.issue(TenantId(5));
        // Point read of another tenant's key.
        let b = batch(5, vec![RequestKind::Get { key: keys::make_key(TenantId(6), b"k") }]);
        assert_eq!(authorize(&ca, &cert, &b), Err(KvError::Unauthorized));
        // Scan straddling the tenant boundary.
        let b = batch(
            5,
            vec![RequestKind::Scan {
                start: keys::make_key(TenantId(5), b"a"),
                end: keys::make_key(TenantId(6), b"a"),
                limit: 10,
            }],
        );
        assert_eq!(authorize(&ca, &cert, &b), Err(KvError::Unauthorized));
    }

    #[test]
    fn claimed_tenant_must_match_cert() {
        let mut ca = CertAuthority::new();
        let cert = ca.issue(TenantId(5));
        // Batch claims tenant 6 with tenant 5's cert, targeting tenant 6
        // keys: the identity mismatch alone must reject it.
        let b = batch(6, vec![RequestKind::Get { key: keys::make_key(TenantId(6), b"k") }]);
        assert_eq!(authorize(&ca, &cert, &b), Err(KvError::Unauthorized));
    }

    #[test]
    fn system_tenant_bypasses_keyspace_check() {
        let mut ca = CertAuthority::new();
        let cert = ca.issue(TenantId::SYSTEM);
        let b = batch(
            TenantId::SYSTEM.raw(),
            vec![RequestKind::Get { key: keys::make_key(TenantId(42), b"k") }],
        );
        assert!(authorize(&ca, &cert, &b).is_ok());
    }

    #[test]
    fn revoked_cert_rejected() {
        let mut ca = CertAuthority::new();
        let cert = ca.issue(TenantId(5));
        ca.revoke(cert.serial());
        let b = batch(5, vec![RequestKind::Get { key: keys::make_key(TenantId(5), b"k") }]);
        assert_eq!(authorize(&ca, &cert, &b), Err(KvError::Unauthorized));
    }

    #[test]
    fn forged_serial_rejected() {
        let ca = CertAuthority::new();
        // A cert with a serial the CA never issued.
        let forged = TenantCert { tenant: TenantId(5), serial: 999 };
        let b = batch(5, vec![RequestKind::Get { key: keys::make_key(TenantId(5), b"k") }]);
        assert_eq!(authorize(&ca, &forged, &b), Err(KvError::Unauthorized));
    }

    #[test]
    fn put_delete_and_intent_checked() {
        let mut ca = CertAuthority::new();
        let cert = ca.issue(TenantId(5));
        let foreign = keys::make_key(TenantId(9), b"x");
        for req in [
            RequestKind::WriteIntent {
                key: foreign.clone(),
                value: Some(Bytes::from_static(b"v")),
            },
            RequestKind::WriteIntent { key: foreign.clone(), value: None },
            RequestKind::ResolveIntent { key: foreign.clone(), commit_ts: None },
        ] {
            let b = batch(5, vec![req]);
            assert_eq!(authorize(&ca, &cert, &b), Err(KvError::Unauthorized));
        }
        // `EndTxn` is checked at its transaction's anchor key.
        let mut b = batch(5, vec![RequestKind::EndTxn { commit: true }]);
        assert!(authorize(&ca, &cert, &b).is_ok());
        b.txn = txn(foreign);
        assert_eq!(authorize(&ca, &cert, &b), Err(KvError::Unauthorized));
    }
}
