//! SQL sessions and serialization for dynamic session migration (§4.2.4).
//!
//! "Connection migration is handled by the proxy service when the client
//! session is idle (no open transaction). In this state, the proxy buffers
//! incoming pgwire messages and requests the SQL node to serialize the
//! session, capturing client settings and prepared statements. The
//! serialized session includes a 'revival token,' an internal
//! authentication credential that lets the proxy resume the session on a
//! new SQL node without client re-authentication."

use std::collections::BTreeMap;

use bytes::{BufMut, Bytes, BytesMut};

use crate::coord::{SqlError, Txn};

/// A client SQL session.
pub struct Session {
    /// Session ID on its current SQL node.
    pub id: u64,
    /// Authenticated user.
    pub user: String,
    /// Session settings (`SET key = value`).
    pub settings: BTreeMap<String, String>,
    /// Prepared statements: name → SQL text.
    pub prepared: BTreeMap<String, String>,
    /// The open explicit transaction, if any.
    pub txn: Option<Txn>,
}

impl Session {
    /// Creates a fresh session.
    pub fn new(id: u64, user: impl Into<String>) -> Session {
        Session {
            id,
            user: user.into(),
            settings: BTreeMap::new(),
            prepared: BTreeMap::new(),
            txn: None,
        }
    }

    /// Whether the session is idle (no open transaction) and therefore
    /// migratable.
    pub fn is_idle(&self) -> bool {
        self.txn.as_ref().is_none_or(|t| !t.is_pending())
    }
}

/// The internal credential allowing the proxy to resume a session on a new
/// SQL node without client re-authentication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RevivalToken {
    /// The tenant the token is scoped to.
    pub tenant: u64,
    /// The authenticated user.
    pub user: String,
    /// Virtual-time nanoseconds of issuance.
    pub issued_at: u64,
    /// MAC over the fields under the tenant secret.
    pub signature: u64,
}

/// Keyed hash standing in for an HMAC (FNV-1a over secret ‖ payload). Not
/// cryptographically strong, but structurally faithful: tokens are
/// unforgeable without the per-tenant secret held by SQL infrastructure.
fn mac(secret: u64, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ secret;
    for &b in secret.to_be_bytes().iter().chain(payload) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl RevivalToken {
    /// Issues a token under the tenant secret.
    pub fn issue(tenant: u64, user: &str, issued_at: u64, secret: u64) -> RevivalToken {
        let mut payload = Vec::new();
        payload.extend_from_slice(&tenant.to_be_bytes());
        payload.extend_from_slice(user.as_bytes());
        payload.extend_from_slice(&issued_at.to_be_bytes());
        RevivalToken { tenant, user: user.to_string(), issued_at, signature: mac(secret, &payload) }
    }

    /// Verifies the token under the tenant secret.
    pub fn verify(&self, secret: u64) -> bool {
        let expected = RevivalToken::issue(self.tenant, &self.user, self.issued_at, secret);
        expected.signature == self.signature
    }
}

/// A serialized session: everything a new SQL node needs to resume it.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The user.
    pub user: String,
    /// Session settings.
    pub settings: BTreeMap<String, String>,
    /// Prepared statements.
    pub prepared: BTreeMap<String, String>,
    /// The revival token.
    pub token: RevivalToken,
}

impl SessionSnapshot {
    /// Serializes a session. Fails if a transaction is open — only idle
    /// sessions migrate.
    pub fn capture(
        session: &Session,
        tenant: u64,
        now_nanos: u64,
        secret: u64,
    ) -> Result<SessionSnapshot, SqlError> {
        if !session.is_idle() {
            return Err(SqlError::State("cannot serialize session with open transaction".into()));
        }
        Ok(SessionSnapshot {
            user: session.user.clone(),
            settings: session.settings.clone(),
            prepared: session.prepared.clone(),
            token: RevivalToken::issue(tenant, &session.user, now_nanos, secret),
        })
    }

    /// Restores the snapshot into a fresh session on a new node, verifying
    /// the revival token.
    pub fn restore(&self, new_id: u64, tenant: u64, secret: u64) -> Result<Session, SqlError> {
        if self.token.tenant != tenant {
            return Err(SqlError::State("revival token tenant mismatch".into()));
        }
        if !self.token.verify(secret) {
            return Err(SqlError::State("revival token verification failed".into()));
        }
        Ok(Session {
            id: new_id,
            user: self.user.clone(),
            settings: self.settings.clone(),
            prepared: self.prepared.clone(),
            txn: None,
        })
    }

    /// Wire encoding (length-prefixed fields).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        put_str(&mut b, &self.user);
        b.put_u32(self.settings.len() as u32);
        for (k, v) in &self.settings {
            put_str(&mut b, k);
            put_str(&mut b, v);
        }
        b.put_u32(self.prepared.len() as u32);
        for (k, v) in &self.prepared {
            put_str(&mut b, k);
            put_str(&mut b, v);
        }
        b.put_u64(self.token.tenant);
        put_str(&mut b, &self.token.user);
        b.put_u64(self.token.issued_at);
        b.put_u64(self.token.signature);
        b.freeze()
    }

    /// Wire decoding.
    pub fn decode(raw: &[u8]) -> Option<SessionSnapshot> {
        let mut pos = 0usize;
        let user = get_str(raw, &mut pos)?;
        let n = get_u32(raw, &mut pos)? as usize;
        let mut settings = BTreeMap::new();
        for _ in 0..n {
            let k = get_str(raw, &mut pos)?;
            let v = get_str(raw, &mut pos)?;
            settings.insert(k, v);
        }
        let n = get_u32(raw, &mut pos)? as usize;
        let mut prepared = BTreeMap::new();
        for _ in 0..n {
            let k = get_str(raw, &mut pos)?;
            let v = get_str(raw, &mut pos)?;
            prepared.insert(k, v);
        }
        let tenant = get_u64(raw, &mut pos)?;
        let tuser = get_str(raw, &mut pos)?;
        let issued_at = get_u64(raw, &mut pos)?;
        let signature = get_u64(raw, &mut pos)?;
        Some(SessionSnapshot {
            user,
            settings,
            prepared,
            token: RevivalToken { tenant, user: tuser, issued_at, signature },
        })
    }
}

fn put_str(b: &mut BytesMut, s: &str) {
    b.put_u32(s.len() as u32);
    b.put_slice(s.as_bytes());
}

fn get_u32(raw: &[u8], pos: &mut usize) -> Option<u32> {
    let v = u32::from_be_bytes(*raw.get(*pos..)?.first_chunk()?);
    *pos += 4;
    Some(v)
}

fn get_u64(raw: &[u8], pos: &mut usize) -> Option<u64> {
    let v = u64::from_be_bytes(*raw.get(*pos..)?.first_chunk()?);
    *pos += 8;
    Some(v)
}

fn get_str(raw: &[u8], pos: &mut usize) -> Option<String> {
    let n = get_u32(raw, pos)? as usize;
    let s = String::from_utf8(raw.get(*pos..)?.get(..n)?.to_vec()).ok()?;
    *pos += n;
    Some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        let mut s = Session::new(1, "app_user");
        s.settings.insert("application_name".into(), "checkout".into());
        s.settings.insert("statement_timeout".into(), "10s".into());
        s.prepared.insert("get_user".into(), "SELECT * FROM users WHERE id = $1".into());
        s
    }

    #[test]
    fn snapshot_roundtrip_through_wire_format() {
        let snap = SessionSnapshot::capture(&session(), 7, 12345, secret_placeholder())
            .expect("idle session serializes");
        let decoded = SessionSnapshot::decode(&snap.encode()).expect("decodes");
        assert_eq!(decoded, snap);
    }

    fn secret_placeholder() -> u64 {
        0xdead_beef_cafe_f00d
    }

    #[test]
    fn restore_verifies_token() {
        let secret = secret_placeholder();
        let snap = SessionSnapshot::capture(&session(), 7, 1, secret).unwrap();
        let restored = snap.restore(99, 7, secret).expect("valid token restores");
        assert_eq!(restored.id, 99);
        assert_eq!(restored.user, "app_user");
        assert_eq!(restored.settings.len(), 2);
        assert_eq!(restored.prepared.len(), 1);
        assert!(restored.txn.is_none());
    }

    #[test]
    fn forged_or_cross_tenant_tokens_rejected() {
        let secret = secret_placeholder();
        let snap = SessionSnapshot::capture(&session(), 7, 1, secret).unwrap();
        // Wrong secret on the restoring node.
        assert!(snap.restore(1, 7, secret + 1).is_err());
        // Token replayed against a different tenant.
        assert!(snap.restore(1, 8, secret).is_err());
        // Tampered user.
        let mut tampered = snap.clone();
        tampered.user = "admin".into();
        tampered.token.user = "admin".into();
        assert!(tampered.restore(1, 7, secret).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let snap = SessionSnapshot::capture(&session(), 7, 1, 42).unwrap();
        let raw = snap.encode();
        assert!(SessionSnapshot::decode(&raw[..raw.len() - 1]).is_none());
        assert!(SessionSnapshot::decode(&[]).is_none());
        for v in crate::hostile_variants(&raw) {
            SessionSnapshot::decode(&v);
        }
    }
}
