//! Output checks: a digest of every target's JSON, compared against the
//! committed expected digests, and per-cell checksum agreement between two
//! passes of the same plan.

use comet_service::json;
use std::collections::BTreeMap;

/// 64-bit FNV-1a of `bytes`, the digest of one target's JSON.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3))
}

/// Target name -> hex digest of its JSON.
pub type Digests = BTreeMap<String, String>;

pub fn digest_hex(json: &str) -> String {
    format!("{:016x}", fnv1a_64(json.as_bytes()))
}

/// One digest over every target, in name order.
pub fn combined(digests: &Digests) -> String {
    let joined: String = digests.iter().map(|(name, digest)| format!("{name}={digest};")).collect();
    digest_hex(&joined)
}

/// Parses the expected-digest file: a flat JSON object of name -> hex digest.
pub fn parse_expected(text: &str) -> Result<Digests, String> {
    let value = json::parse(text).map_err(|error| format!("expected digests: {error:?}"))?;
    let serde::Value::Map(entries) = value else {
        return Err("expected digests: not a JSON object".to_string());
    };
    entries
        .iter()
        .map(|(name, digest)| {
            json::as_str(digest)
                .map(|digest| (name.clone(), digest.to_string()))
                .ok_or_else(|| format!("expected digests: {name} is not a string"))
        })
        .collect()
}

/// Targets whose observed digest disagrees with the expected one, including
/// targets missing on either side.
pub fn disagreeing(expected: &Digests, observed: &Digests) -> Vec<String> {
    let mut names: Vec<&String> = expected.keys().chain(observed.keys()).collect();
    names.sort_unstable();
    names.dedup();
    names.into_iter().filter(|name| expected.get(*name) != observed.get(*name)).cloned().collect()
}

/// Cells whose checksums differ between two passes of the same plan (cells
/// are matched by position; a length difference counts every unmatched cell).
pub fn checksum_mismatches(reference: &[u64], traced: &[u64]) -> usize {
    let paired = reference.iter().zip(traced).filter(|(a, b)| a != b).count();
    paired + reference.len().abs_diff(traced.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digests(pairs: &[(&str, &str)]) -> Digests {
        pairs.iter().map(|(name, digest)| (name.to_string(), digest.to_string())).collect()
    }

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn agreeing_digests_report_nothing() {
        let expected = digests(&[("fig3", "01"), ("fig9", "02")]);
        assert!(disagreeing(&expected, &expected.clone()).is_empty());
        assert_eq!(combined(&expected), combined(&expected.clone()));
    }

    #[test]
    fn changed_missing_and_extra_targets_all_disagree() {
        let expected = digests(&[("fig3", "01"), ("fig9", "02"), ("ranks", "03")]);
        let observed = digests(&[("fig3", "01"), ("fig9", "ff"), ("mixed", "04")]);
        assert_eq!(disagreeing(&expected, &observed), ["fig9", "mixed", "ranks"]);
        assert_ne!(combined(&expected), combined(&observed));
    }

    #[test]
    fn expected_file_round_trips() {
        let parsed = parse_expected("{\"fig3\":\"00aa\",\"fig9\":\"00bb\"}").unwrap();
        assert_eq!(parsed, digests(&[("fig3", "00aa"), ("fig9", "00bb")]));
        assert!(parse_expected("[1]").is_err());
        assert!(parse_expected("{\"fig3\":1}").is_err());
    }

    #[test]
    fn checksum_mismatches_count_changed_and_unmatched_cells() {
        assert_eq!(checksum_mismatches(&[1, 2, 3], &[1, 2, 3]), 0);
        assert_eq!(checksum_mismatches(&[1, 2, 3], &[1, 9, 3]), 1);
        assert_eq!(checksum_mismatches(&[1, 2, 3], &[1, 2]), 1);
    }
}
