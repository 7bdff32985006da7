//! Key files for standalone deployments: the trusted dealer writes one
//! secret key file per node plus one public key file, and `theta-node`
//! loads them at startup (the paper's deployment where key material is
//! provisioned into each node's security domain).

use theta_codec::{Decode, Encode, Reader, Writer};
use theta_network::handshake::IdentitySeed;
use theta_orchestration::KeyChest;
use theta_schemes::{bls04, bz03, cks05, kg20, sg02, sh00};
use theta_service::PublicKeyChest;

/// Magic prefix of node key files.
const NODE_MAGIC: &[u8; 8] = b"THETAKY2";
/// Magic prefix of public key files.
const PUBLIC_MAGIC: &[u8; 8] = b"THETAPB2";
/// Magics of the files written while Ed25519 points used the Edwards
/// (RFC 8032) encoding; their points do not decode as Ristretto255.
const EDWARDS_NODE_MAGIC: &[u8; 8] = b"THETAKEY";
const EDWARDS_PUBLIC_MAGIC: &[u8; 8] = b"THETAPUB";

/// Checks a file's magic. A file with the magic of the Edwards-encoded
/// format gets an error that says so, instead of decoding its points
/// into the wrong group elements or reading as malformed.
pub(crate) fn check_magic(
    found: &[u8],
    current: &[u8; 8],
    edwards: &[u8; 8],
    what: &str,
) -> Result<(), String> {
    if found == current {
        Ok(())
    } else if found == edwards {
        Err(format!(
            "{what} uses the old Edwards point encoding; re-deal it with theta_keygen"
        ))
    } else {
        Err(format!("{what} has an unknown format magic"))
    }
}

/// One node's secret key material, as persisted on disk.
#[derive(Default)]
pub struct NodeKeyFile {
    /// Node id (1-based).
    pub node_id: u16,
    /// SG02 share.
    pub sg02: Option<sg02::KeyShare>,
    /// BZ03 share.
    pub bz03: Option<bz03::KeyShare>,
    /// SH00 share.
    pub sh00: Option<sh00::KeyShare>,
    /// BLS04 share.
    pub bls04: Option<bls04::KeyShare>,
    /// KG20 share.
    pub kg20: Option<kg20::KeyShare>,
    /// CKS05 share.
    pub cks05: Option<cks05::KeyShare>,
    /// Seed of this node's static transport identity (the Noise-IK
    /// handshake key). Absent in key files dealt before the encrypted
    /// transport existed; such nodes can only join unauthenticated
    /// test meshes.
    pub identity_seed: Option<IdentitySeed>,
}

impl NodeKeyFile {
    /// Converts into the orchestration key chest.
    pub fn into_chest(self) -> KeyChest {
        let mut chest = KeyChest::new();
        chest.sg02 = self.sg02;
        chest.bz03 = self.bz03;
        chest.sh00 = self.sh00;
        chest.bls04 = self.bls04;
        chest.kg20 = self.kg20;
        chest.cks05 = self.cks05;
        chest
    }
}

/// Parses a node key file from a mutable buffer, volatile-wiping the
/// buffer before returning. The serialized bytes *are* the secret shares,
/// so the caller's copy must not linger on the heap after parsing; the
/// buffer is wiped on both the success and error paths.
///
/// # Errors
///
/// [`theta_codec::CodecError`] on malformed input (the buffer is still
/// wiped).
pub fn decode_node_key(bytes: &mut [u8]) -> theta_codec::Result<NodeKeyFile> {
    let result = NodeKeyFile::decoded(bytes);
    theta_math::wipe_bytes(bytes);
    result
}

fn put_opt<T: Encode>(w: &mut Writer, v: &Option<T>) {
    match v {
        None => false.encode(w),
        Some(inner) => {
            true.encode(w);
            inner.encode(w);
        }
    }
}

fn get_opt<T: Decode>(r: &mut Reader) -> theta_codec::Result<Option<T>> {
    if bool::decode(r)? {
        Ok(Some(T::decode(r)?))
    } else {
        Ok(None)
    }
}

impl Encode for NodeKeyFile {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(NODE_MAGIC);
        self.node_id.encode(w);
        put_opt(w, &self.sg02);
        put_opt(w, &self.bz03);
        put_opt(w, &self.sh00);
        put_opt(w, &self.bls04);
        put_opt(w, &self.kg20);
        put_opt(w, &self.cks05);
        match &self.identity_seed {
            None => false.encode(w),
            Some(seed) => {
                true.encode(w);
                w.put_raw(seed.bytes());
            }
        }
    }
}

impl Decode for NodeKeyFile {
    fn decode(r: &mut Reader) -> theta_codec::Result<Self> {
        check_magic(r.take(8)?, NODE_MAGIC, EDWARDS_NODE_MAGIC, "node key file")
            .map_err(theta_codec::CodecError::InvalidValue)?;
        let node_id = u16::decode(r)?;
        let sg02 = get_opt(r)?;
        let bz03 = get_opt(r)?;
        let sh00 = get_opt(r)?;
        let bls04 = get_opt(r)?;
        let kg20 = get_opt(r)?;
        let cks05 = get_opt(r)?;
        // Key files dealt before the encrypted transport end here.
        let identity_seed = if r.is_at_end() {
            None
        } else if bool::decode(r)? {
            let mut seed = [0u8; 32];
            seed.copy_from_slice(r.take(32)?);
            Some(IdentitySeed::new(seed))
        } else {
            None
        };
        Ok(NodeKeyFile { node_id, sg02, bz03, sh00, bls04, kg20, cks05, identity_seed })
    }
}

/// Serializes a public key chest with a file magic (no mesh roster —
/// kept for unauthenticated/test deployments).
pub fn encode_public(keys: &PublicKeyChest) -> Vec<u8> {
    encode_public_with_roster(keys, &[])
}

/// Serializes a public key chest plus the mesh roster (each node's
/// static transport public key, compressed, in id order).
pub fn encode_public_with_roster(keys: &PublicKeyChest, roster: &[[u8; 32]]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_raw(PUBLIC_MAGIC);
    put_opt(&mut w, &keys.sg02);
    put_opt(&mut w, &keys.bz03);
    put_opt(&mut w, &keys.sh00);
    put_opt(&mut w, &keys.bls04);
    put_opt(&mut w, &keys.kg20);
    put_opt(&mut w, &keys.cks05);
    if !roster.is_empty() {
        (roster.len() as u16).encode(&mut w);
        for entry in roster {
            w.put_raw(entry);
        }
    }
    w.into_bytes()
}

/// Parses a public key file, dropping any roster (see
/// [`decode_public_with_roster`]).
///
/// # Errors
///
/// [`theta_codec::CodecError`] on malformed input.
pub fn decode_public(bytes: &[u8]) -> theta_codec::Result<PublicKeyChest> {
    decode_public_with_roster(bytes).map(|(keys, _)| keys)
}

/// Parses a public key file including the mesh roster. Files written
/// before the encrypted transport (or with an empty roster) decode to
/// an empty roster vector.
///
/// # Errors
///
/// [`theta_codec::CodecError`] on malformed input.
pub fn decode_public_with_roster(
    bytes: &[u8],
) -> theta_codec::Result<(PublicKeyChest, Vec<[u8; 32]>)> {
    let mut r = Reader::new(bytes);
    check_magic(r.take(8)?, PUBLIC_MAGIC, EDWARDS_PUBLIC_MAGIC, "public key file")
        .map_err(theta_codec::CodecError::InvalidValue)?;
    let keys = PublicKeyChest {
        sg02: get_opt(&mut r)?,
        bz03: get_opt(&mut r)?,
        sh00: get_opt(&mut r)?,
        bls04: get_opt(&mut r)?,
        kg20: get_opt(&mut r)?,
        cks05: get_opt(&mut r)?,
    };
    let mut roster = Vec::new();
    if !r.is_at_end() {
        let count = u16::decode(&mut r)?;
        for _ in 0..count {
            let mut entry = [0u8; 32];
            entry.copy_from_slice(r.take(32)?);
            roster.push(entry);
        }
    }
    if !r.is_at_end() {
        return Err(theta_codec::CodecError::TrailingBytes(r.remaining()));
    }
    Ok((keys, roster))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use theta_schemes::ThresholdParams;

    #[test]
    fn node_key_file_roundtrip() {
        let mut r = rand::rngs::StdRng::seed_from_u64(3);
        let params = ThresholdParams::new(1, 4).unwrap();
        let (_pk, shares) = sg02::keygen(params, &mut r);
        let (_bpk, bshares) = bls04::keygen(params, &mut r);
        let file = NodeKeyFile {
            node_id: 2,
            sg02: Some(shares[1].clone()),
            bls04: Some(bshares[1].clone()),
            ..Default::default()
        };
        let decoded = NodeKeyFile::decoded(&file.encoded()).unwrap();
        assert_eq!(decoded.node_id, 2);
        assert!(decoded.sg02.is_some());
        assert!(decoded.bls04.is_some());
        assert!(decoded.sh00.is_none());
        let chest = decoded.into_chest();
        assert!(chest.has(theta_schemes::SchemeId::Sg02));
        assert!(!chest.has(theta_schemes::SchemeId::Cks05));
    }

    #[test]
    fn decode_node_key_wipes_the_buffer() {
        let mut r = rand::rngs::StdRng::seed_from_u64(6);
        let params = ThresholdParams::new(1, 4).unwrap();
        let (_pk, shares) = sg02::keygen(params, &mut r);
        let file = NodeKeyFile {
            node_id: 1,
            sg02: Some(shares[0].clone()),
            ..Default::default()
        };
        let mut bytes = file.encoded();
        let decoded = decode_node_key(&mut bytes).unwrap();
        assert!(decoded.sg02.is_some());
        assert!(bytes.iter().all(|&b| b == 0), "secret bytes survived decode");

        // The error path wipes too.
        let mut garbage = b"NOTAKEY0rest".to_vec();
        assert!(decode_node_key(&mut garbage).is_err());
        assert!(garbage.iter().all(|&b| b == 0));
    }

    #[test]
    fn public_key_file_roundtrip() {
        let mut r = rand::rngs::StdRng::seed_from_u64(4);
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, _) = cks05::keygen(params, &mut r);
        let chest = PublicKeyChest { cks05: Some(pk), ..Default::default() };
        let bytes = encode_public(&chest);
        let back = decode_public(&bytes).unwrap();
        assert_eq!(back, chest);
    }

    #[test]
    fn identity_seed_roundtrips_and_is_optional() {
        let file = NodeKeyFile {
            node_id: 3,
            identity_seed: Some(IdentitySeed::new([7u8; 32])),
            ..Default::default()
        };
        let decoded = NodeKeyFile::decoded(&file.encoded()).unwrap();
        assert_eq!(decoded.identity_seed.as_ref().unwrap().bytes(), &[7u8; 32]);

        // A pre-transport key file (no trailing identity field) still
        // decodes, with no identity.
        let bare = NodeKeyFile { node_id: 4, ..Default::default() };
        let mut bytes = bare.encoded();
        bytes.truncate(bytes.len() - 1); // drop the identity presence flag
        let decoded = NodeKeyFile::decoded(&bytes).unwrap();
        assert_eq!(decoded.node_id, 4);
        assert!(decoded.identity_seed.is_none());
    }

    #[test]
    fn public_key_file_carries_the_roster() {
        use theta_network::handshake::{MeshAuth, Roster};
        let auth = MeshAuth::insecure_dev(1, 3, 99);
        let roster_bytes = auth.roster.to_bytes();
        let chest = PublicKeyChest::default();
        let bytes = encode_public_with_roster(&chest, &roster_bytes);
        let (keys, roster) = decode_public_with_roster(&bytes).unwrap();
        assert_eq!(keys, chest);
        assert_eq!(roster, roster_bytes);
        // The roster entries revalidate as curve points.
        assert!(Roster::from_bytes(&roster).is_ok());
        // The roster-less reader still works on the same file.
        assert_eq!(decode_public(&bytes).unwrap(), chest);
        // And a roster-less file yields an empty roster.
        let (_, empty) = decode_public_with_roster(&encode_public(&chest)).unwrap();
        assert!(empty.is_empty());
    }

    fn edwards_error(err: theta_codec::CodecError) -> bool {
        err.to_string().contains("old Edwards point encoding; re-deal it with theta_keygen")
    }

    #[test]
    fn edwards_node_key_file_fails_with_re_deal_error() {
        let mut bytes = NodeKeyFile { node_id: 1, ..Default::default() }.encoded();
        bytes[..8].copy_from_slice(EDWARDS_NODE_MAGIC);
        let err = decode_node_key(&mut bytes).err().expect("old magic rejected");
        assert!(edwards_error(err));
    }

    #[test]
    fn edwards_public_key_file_fails_with_re_deal_error() {
        let mut r = rand::rngs::StdRng::seed_from_u64(8);
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, _) = cks05::keygen(params, &mut r);
        let mut bytes = encode_public(&PublicKeyChest { cks05: Some(pk), ..Default::default() });
        bytes[..8].copy_from_slice(EDWARDS_PUBLIC_MAGIC);
        assert!(edwards_error(decode_public(&bytes).unwrap_err()));
    }

    #[test]
    fn wrong_magic_rejected() {
        assert!(NodeKeyFile::decoded(b"NOTAKEY0rest").is_err());
        assert!(decode_public(b"NOTAPUB0rest").is_err());
        // Crossed magics rejected too.
        let mut r = rand::rngs::StdRng::seed_from_u64(5);
        let params = ThresholdParams::new(1, 4).unwrap();
        let (pk, _) = cks05::keygen(params, &mut r);
        let pub_bytes = encode_public(&PublicKeyChest { cks05: Some(pk), ..Default::default() });
        assert!(NodeKeyFile::decoded(&pub_bytes).is_err());
    }
}
