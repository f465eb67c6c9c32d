//! The rule families. Each rule exposes a stable id, a scope predicate
//! over workspace-relative paths, and a `check` that appends
//! [`crate::Diagnostic`]s.

pub mod dead_allow;
pub mod dep_audit;
pub mod determinism;
pub mod exhaustive_dispatch;
pub mod float_totality;
pub mod observer_purity;
pub mod panic_hygiene;
pub mod test_only_api;
pub mod unit_safety;

/// All rule ids, for `--list-rules` and allow-directive validation.
pub const ALL: &[&str] = &[
    determinism::RULE,
    unit_safety::RULE,
    panic_hygiene::RULE,
    dep_audit::RULE,
    float_totality::RULE,
    observer_purity::RULE,
    exhaustive_dispatch::RULE,
    test_only_api::RULE,
    dead_allow::RULE,
];

/// The rules that judge the whole workspace at once rather than one
/// file: they run only when every file is linted together.
pub const WORKSPACE: &[&str] = &[test_only_api::RULE];

/// True when `code[pos..]` starts with `word` as a whole identifier
/// (neither side continues an identifier).
pub(crate) fn is_ident_at(code: &str, pos: usize, word: &str) -> bool {
    let bytes = code.as_bytes();
    let before_ok = pos == 0 || !is_ident_byte(bytes[pos - 1]);
    let after = pos + word.len();
    let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
    before_ok && after_ok
}

/// Byte positions where `word` occurs as a whole identifier in `code`.
pub(crate) fn ident_positions(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(rel) = code[from..].find(word) {
        let pos = from + rel;
        if is_ident_at(code, pos, word) {
            out.push(pos);
        }
        from = pos + word.len();
    }
    out
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ident_matching_respects_boundaries() {
        assert_eq!(ident_positions("HashMap::new()", "HashMap"), vec![0]);
        assert!(ident_positions("MyHashMap::new()", "HashMap").is_empty());
        assert!(ident_positions("HashMapLike", "HashMap").is_empty());
        assert_eq!(ident_positions("a HashMap b HashMap", "HashMap").len(), 2);
    }
}
