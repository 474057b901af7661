//! Base-URL normalization (§3.1, "Base URL").
//!
//! Dynamic query values (cache busters, session ids) make URLs unique per
//! visit and can spuriously match — or fail to match — filter rules whose
//! patterns reference query fragments of an *earlier* request embedded in
//! the current one. The paper normalizes query strings by replacing dynamic
//! values, but takes care **not** to rewrite values that appear in filter
//! rules (e.g. `@@*jsp?callback=aslHandleAds*`), which would break those
//! rules.

use http_model::Url;
use std::collections::{HashMap, HashSet};

/// The replacement token for dynamic values.
const PLACEHOLDER: &str = "X";

/// How many bytes before an `=` the literal index keys on.
const KEY_SUFFIX: usize = 4;

/// A normalizer carrying the filter lists' query literals.
#[derive(Debug, Clone, Default)]
pub struct UrlNormalizer {
    /// Lowercased query fragments appearing in any loaded filter rule,
    /// each once, in first-seen order.
    protected: Vec<String>,
    /// Literal index: every 0..=4-byte run that ends right before an `=`
    /// in a literal (packed by [`suffix_key`]) → ids into `protected` of
    /// the literals holding it there, ascending and without repeats. The
    /// empty run's bucket holds every literal with an `=`.
    by_key_suffix: HashMap<u64, Vec<u32>>,
    /// Ablation toggle: disabled normalizer returns URLs untouched.
    pub enabled: bool,
}

/// Pack up to [`KEY_SUFFIX`] bytes, ASCII-lowercased, and their count
/// into one map key; distinct (length, bytes) pairs never collide.
/// Lowercasing the literal side too only widens a bucket (to literals
/// that spell the key in another case), never drops a candidate.
fn suffix_key(bytes: &[u8]) -> u64 {
    debug_assert!(bytes.len() <= KEY_SUFFIX);
    bytes.iter().fold(bytes.len() as u64, |k, b| {
        (k << 8) | u64::from(b.to_ascii_lowercase())
    })
}

/// Does `lit` protect the pair whose lowercased form is `kv`
/// (`key=value`, the key being its first `key_len` bytes)? It does when
/// it contains `key=value`, or when its first `key=` is followed by a
/// non-empty value prefix (up to `&` or `?`) that the value starts with
/// (wildcarded rules).
fn protects(lit: &str, kv: &str, key_len: usize) -> bool {
    let (keq, value) = kv.split_at(key_len + 1);
    lit.contains(kv)
        || lit.find(keq).is_some_and(|pos| {
            let tail = &lit[pos + keq.len()..];
            let lit_val = &tail[..tail.find(['&', '?']).unwrap_or(tail.len())];
            !lit_val.is_empty() && value.starts_with(lit_val)
        })
}

impl UrlNormalizer {
    /// The pipeline's normalizer: built from the engine's query literals
    /// when `enabled`, else a disabled one that leaves URLs untouched.
    pub fn new(engine: &abp_filter::Engine, enabled: bool) -> UrlNormalizer {
        if enabled {
            UrlNormalizer::from_engine(engine)
        } else {
            UrlNormalizer::default()
        }
    }

    /// Build from an engine's query literals.
    pub fn from_engine(engine: &abp_filter::Engine) -> UrlNormalizer {
        UrlNormalizer::indexed(engine.query_literals())
    }

    /// Build with explicit protected fragments (tests, ablations).
    pub fn with_protected(protected: Vec<String>) -> UrlNormalizer {
        UrlNormalizer::indexed(&protected)
    }

    /// Keep each literal once and index it by the bytes before its `=`s.
    fn indexed(literals: &[String]) -> UrlNormalizer {
        let mut seen = HashSet::new();
        let protected: Vec<String> = literals
            .iter()
            .filter(|lit| seen.insert(lit.as_str()))
            .cloned()
            .collect();
        let mut by_key_suffix: HashMap<u64, Vec<u32>> = HashMap::new();
        for (id, lit) in protected.iter().enumerate() {
            let id = u32::try_from(id).expect("fewer than 2^32 protected literals");
            for (eq, _) in lit.match_indices('=') {
                let before = &lit.as_bytes()[..eq];
                for len in 0..=before.len().min(KEY_SUFFIX) {
                    let ids = by_key_suffix
                        .entry(suffix_key(&before[eq - len..]))
                        .or_default();
                    if ids.last() != Some(&id) {
                        ids.push(id);
                    }
                }
            }
        }
        UrlNormalizer {
            protected,
            by_key_suffix,
            enabled: true,
        }
    }

    /// Is this `key=value` pair protected by some filter literal (see
    /// [`protects`])? Only literals holding `key=` can protect the pair,
    /// and each of those holds the key's last bytes (none, for an empty
    /// key) right before an `=`, so the index bucket for those bytes
    /// misses no candidate and the predicate decides as if it had scanned
    /// every literal.
    fn is_protected(&self, key: &str, value: &str) -> bool {
        let tail = &key.as_bytes()[key.len().saturating_sub(KEY_SUFFIX)..];
        let Some(ids) = self.by_key_suffix.get(&suffix_key(tail)) else {
            return false;
        };
        let mut kv = String::with_capacity(key.len() + 1 + value.len());
        kv.push_str(key);
        kv.push('=');
        kv.push_str(value);
        kv.make_ascii_lowercase();
        ids.iter()
            .any(|&id| protects(&self.protected[id as usize], &kv, key.len()))
    }

    /// Does a value look dynamic? Numeric runs, long tokens, mixed
    /// hex/base64-looking strings.
    fn is_dynamic(value: &str) -> bool {
        if value.is_empty() {
            return false;
        }
        let digits = value.chars().filter(|c| c.is_ascii_digit()).count();
        let len = value.chars().count();
        // Mostly digits, or long opaque tokens.
        digits * 2 > len || len >= 16
    }

    /// Normalize one URL: dynamic query values become `X` unless protected.
    pub fn normalize(&self, url: &Url) -> Url {
        self.rewrite(url, None)
    }

    /// Like [`normalize`](Self::normalize), also reporting which query
    /// keys were rewritten. Only the provenance layer calls this, and
    /// only for sampled records — the hot path never pays for the key
    /// list.
    pub fn normalize_explain(&self, url: &Url) -> (Url, Vec<String>) {
        let mut rewrites = Vec::new();
        let out = self.rewrite(url, Some(&mut rewrites));
        (out, rewrites)
    }

    fn rewrite(&self, url: &Url, mut rewrites: Option<&mut Vec<String>>) -> Url {
        if !self.enabled {
            return url.clone();
        }
        let Some(query) = url.query() else {
            return url.clone();
        };
        // `out` allocates at the first rewrite; the query bytes before
        // `copied` are already in it, and unchanged runs are copied whole.
        let mut out = String::new();
        let mut copied = 0;
        let mut start = 0;
        for pair in query.split('&') {
            let end = start + pair.len();
            if let Some((k, v)) = pair.split_once('=') {
                if Self::is_dynamic(v) && !self.is_protected(k, v) {
                    out.push_str(&query[copied..start]);
                    out.push_str(k);
                    out.push('=');
                    out.push_str(PLACEHOLDER);
                    copied = end;
                    if let Some(keys) = rewrites.as_deref_mut() {
                        keys.push(k.to_string());
                    }
                }
            }
            start = end + 1;
        }
        if out.is_empty() {
            return url.clone();
        }
        out.push_str(&query[copied..]);
        url.with_query(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn url(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    /// The linear scan over every literal that the index replaced, kept
    /// verbatim as the differential oracle.
    fn linear_is_protected(protected: &[String], key: &str, value: &str) -> bool {
        if protected.is_empty() {
            return false;
        }
        let kv = format!(
            "{}={}",
            key.to_ascii_lowercase(),
            value.to_ascii_lowercase()
        );
        let keq = format!("{}=", key.to_ascii_lowercase());
        protected.iter().any(|lit| {
            lit.contains(&kv) || {
                lit.find(&keq).is_some_and(|pos| {
                    let tail = &lit[pos + keq.len()..];
                    let lit_val: String = tail
                        .chars()
                        .take_while(|c| *c != '&' && *c != '?')
                        .collect();
                    !lit_val.is_empty() && value.to_ascii_lowercase().starts_with(&lit_val)
                })
            }
        })
    }

    /// `normalize_explain` as it was before the index and the
    /// allocation-free rewrite, over [`linear_is_protected`].
    fn linear_normalize_explain(protected: &[String], url: &Url) -> (Url, Vec<String>) {
        let mut rewrites = Vec::new();
        let Some(query) = url.query() else {
            return (url.clone(), rewrites);
        };
        let mut changed = false;
        let parts: Vec<String> = query
            .split('&')
            .map(|kv| {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                if v.is_empty() {
                    kv.to_string()
                } else if UrlNormalizer::is_dynamic(v) && !linear_is_protected(protected, k, v) {
                    changed = true;
                    rewrites.push(k.to_string());
                    format!("{k}={PLACEHOLDER}")
                } else {
                    kv.to_string()
                }
            })
            .collect();
        if !changed {
            return (url.clone(), rewrites);
        }
        (url.with_query(Some(parts.join("&"))), rewrites)
    }

    /// One literal: up to three `key=value` runs whose values end at `&`,
    /// `?`, another `=` or the end, in mixed case with non-ASCII bytes.
    const LITERAL: &str = "[a-cA-C_é?]{0,4}=[0-9a-bA-B]{0,4}[&?=]?[a-cA-C_é]{0,3}=?[0-9aB]{0,3}";

    fn swap_case(s: &str) -> String {
        s.chars()
            .map(|c| {
                if c.is_ascii_lowercase() {
                    c.to_ascii_uppercase()
                } else {
                    c.to_ascii_lowercase()
                }
            })
            .collect()
    }

    /// A query pair aimed at the literals. Mode 0: random key and value;
    /// 1: a suffix of some key spelled before an `=` in a literal (often a
    /// proper one, `id` against `ads_id=`); 2: that key with the
    /// literal's value as the value's prefix; 3: mode 2 case-swapped;
    /// 4: an empty key.
    fn aimed_pair(
        lits: &[String],
        mode: usize,
        pick: usize,
        key: &str,
        value: &str,
    ) -> (String, String) {
        let spots: Vec<(&str, usize)> = lits
            .iter()
            .flat_map(|lit| {
                lit.match_indices('=')
                    .map(move |(eq, _)| (lit.as_str(), eq))
            })
            .collect();
        if mode == 4 {
            return (String::new(), value.to_string());
        }
        if mode == 0 || spots.is_empty() {
            return (key.to_string(), value.to_string());
        }
        let (lit, eq) = spots[pick % spots.len()];
        let starts: Vec<usize> = lit[..eq].char_indices().map(|(i, _)| i).collect();
        let start = starts
            .get((pick / spots.len()) % starts.len().max(1))
            .copied()
            .unwrap_or(eq);
        let lit_key = &lit[start..eq];
        let tail = &lit[eq + 1..];
        let lit_val = &tail[..tail.find(['&', '?']).unwrap_or(tail.len())];
        match mode {
            1 => (lit_key.to_string(), value.to_string()),
            2 => (lit_key.to_string(), format!("{lit_val}{value}")),
            _ => (swap_case(lit_key), swap_case(&format!("{lit_val}{value}"))),
        }
    }

    proptest! {
        #[test]
        fn indexed_lookup_and_rewrite_match_the_linear_oracle(
            lits in proptest::collection::vec(LITERAL, 0..6),
            dup in 0usize..8,
            pairs in proptest::collection::vec(
                (0usize..5, 0usize..1000, "[a-cA-C_é]{0,4}", "[0-9a-bA-B]{0,18}"),
                1..6,
            ),
        ) {
            let mut lits = lits;
            if let Some(copy) = lits.get(dup).cloned() {
                lits.push(copy);
            }
            let n = UrlNormalizer::with_protected(lits.clone());
            let mut query = Vec::new();
            for (mode, pick, key, value) in &pairs {
                let (k, v) = aimed_pair(&lits, *mode, *pick, key, value);
                prop_assert_eq!(
                    n.is_protected(&k, &v),
                    linear_is_protected(&lits, &k, &v),
                    "pair {:?}={:?} against {:?}", k, v, lits
                );
                query.push(if v.is_empty() && *pick % 2 == 0 { k } else { format!("{k}={v}") });
            }
            let u = url("http://a.example/x").with_query(Some(query.join("&")));
            let (out, keys) = n.normalize_explain(&u);
            prop_assert_eq!(&(out.clone(), keys), &linear_normalize_explain(&lits, &u));
            prop_assert_eq!(n.normalize(&u), out);
        }
    }

    #[test]
    fn key_suffix_of_a_literal_key_is_protected() {
        // Literals match as substrings, so key `id` is protected by
        // `ads_id=7` (the literal holds `id=7`) while `uid` is not. The
        // literal index must keep this, not tighten it to whole keys.
        let n = UrlNormalizer::with_protected(vec!["&ads_id=7".to_string()]);
        let u = n.normalize(&url(
            "http://a.example/x?id=7654321&uid=7654321&ads_id=7654321&d=7654321",
        ));
        assert_eq!(u.query(), Some("id=7654321&uid=X&ads_id=7654321&d=7654321"));
    }

    #[test]
    fn duplicate_literals_are_kept_once() {
        let n = UrlNormalizer::with_protected(vec![
            "a_id=1".to_string(),
            "b_id=2".to_string(),
            "a_id=1".to_string(),
        ]);
        assert_eq!(
            n.protected,
            vec!["a_id=1".to_string(), "b_id=2".to_string()]
        );
        assert_eq!(n.by_key_suffix[&suffix_key(b"_id")], vec![0, 1]);
    }

    #[test]
    fn replaces_dynamic_values() {
        let n = UrlNormalizer::with_protected(vec![]);
        let u = n.normalize(&url("http://a.example/x?cb=123456&ord=99887766"));
        assert_eq!(u.query(), Some("cb=X&ord=X"));
    }

    #[test]
    fn keeps_static_values() {
        let n = UrlNormalizer::with_protected(vec![]);
        let u = n.normalize(&url("http://a.example/x?lang=en&page=two"));
        assert_eq!(u.query(), Some("lang=en&page=two"));
    }

    #[test]
    fn long_opaque_tokens_are_dynamic() {
        let n = UrlNormalizer::with_protected(vec![]);
        let u = n.normalize(&url("http://a.example/x?sid=deadbeefcafe1234deadbeef"));
        assert_eq!(u.query(), Some("sid=X"));
    }

    #[test]
    fn protected_values_preserved() {
        // The paper's example: @@*jsp?callback=aslHandleAds* — the callback
        // value must survive normalization even though it is 16+ chars.
        let n = UrlNormalizer::with_protected(vec!["jsp?callback=aslhandleads".to_string()]);
        let u = n.normalize(&url(
            "http://a.example/page.jsp?callback=aslHandleAdsXYZ123&cb=123456",
        ));
        assert_eq!(u.query(), Some("callback=aslHandleAdsXYZ123&cb=X"));
    }

    #[test]
    fn exact_protected_pair_preserved() {
        let n = UrlNormalizer::with_protected(vec!["track?id=777777".to_string()]);
        let u = n.normalize(&url("http://a.example/track?id=777777"));
        assert_eq!(u.query(), Some("id=777777"));
        // A different numeric id is not protected.
        let v = n.normalize(&url("http://a.example/track?id=999999"));
        assert_eq!(v.query(), Some("id=X"));
    }

    #[test]
    fn explain_lists_rewritten_keys() {
        let n = UrlNormalizer::with_protected(vec![]);
        let (u, keys) =
            n.normalize_explain(&url("http://a.example/x?cb=123456&lang=en&ord=987654"));
        assert_eq!(u.query(), Some("cb=X&lang=en&ord=X"));
        assert_eq!(keys, vec!["cb".to_string(), "ord".to_string()]);
        let (_, none) = n.normalize_explain(&url("http://a.example/x?lang=en"));
        assert!(none.is_empty());
    }

    #[test]
    fn disabled_normalizer_is_identity() {
        let mut n = UrlNormalizer::with_protected(vec![]);
        n.enabled = false;
        let u = url("http://a.example/x?cb=123456");
        assert_eq!(n.normalize(&u), u);
    }

    #[test]
    fn no_query_untouched() {
        let n = UrlNormalizer::with_protected(vec![]);
        let u = url("http://a.example/path.js");
        assert_eq!(n.normalize(&u), u);
    }

    #[test]
    fn valueless_params_kept() {
        let n = UrlNormalizer::with_protected(vec![]);
        let u = n.normalize(&url("http://a.example/x?flag&cb=123456"));
        assert_eq!(u.query(), Some("flag&cb=X"));
    }

    #[test]
    fn from_engine_collects_literals() {
        let mut e = abp_filter::Engine::new();
        e.add_list(abp_filter::FilterList::parse(
            "el",
            "@@*jsp?callback=aslHandleAds*\n",
        ));
        let n = UrlNormalizer::from_engine(&e);
        assert!(n.enabled);
        let u = n.normalize(&url("http://a.example/p.jsp?callback=aslHandleAds12345678"));
        assert!(u.query().unwrap().contains("aslHandleAds"), "{u}");
    }
}
