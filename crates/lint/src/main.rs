//! `theta-lint` — a workspace-local secret-hygiene lint.
//!
//! Scans every `.rs` file in the workspace (excluding `vendor/` and this
//! crate) and reports uses of secret key material that leak through
//! formatting, timing or freed memory:
//!
//! - **debug-on-secret** — `#[derive(Debug)]` on a secret-bearing type,
//!   or a hand-written `Debug` impl that does not redact (no `redacted`
//!   marker in its body).
//! - **display-on-secret** — any `Display`/`ToString` impl on a
//!   secret-bearing type. There is no redacted exemption: a secret type
//!   has no legitimate user-facing string form.
//! - **eq-on-secret** — `#[derive(PartialEq)]` or a hand-written
//!   `PartialEq` impl on a secret-bearing type, and any `==`/`!=` whose
//!   operand is a secret field access. Derived equality short-circuits
//!   on the first differing limb, so comparison time leaks the position
//!   of the difference; use the inherent `ct_eq` instead.
//! - **missing-wipe-on-drop** — a secret-bearing type without a `Drop`
//!   impl that wipes (volatile-overwrites) its secret fields, so freed
//!   heap pages would retain key material.
//!
//! A type is *secret-bearing* when its name is in [`SECRET_TYPE_NAMES`]
//! or it has a named field in [`SECRET_FIELDS`], unless exempted in
//! [`NOT_SECRET`] with a justification. Impl blocks are matched within
//! the defining file, which is how every scheme module in this workspace
//! is laid out. The scanner is token-level by design (no `syn` in-tree):
//! comments are stripped first so prose mentioning `Debug` never trips
//! it, and comparison operands are parsed around each `==`/`!=` so
//! `self.id == other.id && self.x_i.ct_eq(..)` does not false-positive.
//!
//! Exit status: `0` when clean, `1` when any finding is reported —
//! `scripts/analysis.sh` and CI treat findings as hard failures.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use theta_lint::{SECRET_FIELDS, SECRET_TYPE_NAMES};

/// `(file name, type name)` pairs exempt from classification, each with
/// a reason. Keep this list short and justified.
const NOT_SECRET: &[(&str, &str)] = &[
    // sh00's x_i here is the *public* signature share x^{2Δ s_i}
    // broadcast to the combiner, not the signing exponent s_i.
    ("sh00.rs", "SignatureShare"),
];

/// One reported violation.
#[derive(Debug, PartialEq)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

fn main() -> ExitCode {
    // The lint binary lives in crates/lint; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf();

    // `theta-lint analyze [...]` — the workspace-wide symbol-graph
    // analyzer (taint / locks / blocking / panics); see lib.rs.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("analyze") {
        let mut rest: Vec<String> = args[1..].to_vec();
        if !rest.iter().any(|a| a == "--root") {
            rest.push("--root".into());
            rest.push(root.to_string_lossy().into_owned());
        }
        return match theta_lint::analyze::main_analyze(&rest) {
            0 => ExitCode::SUCCESS,
            2 => ExitCode::from(2),
            _ => ExitCode::FAILURE,
        };
    }

    let mut files = Vec::new();
    for top in ["crates", "src", "tests"] {
        collect_rs_files(&root.join(top), &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let rel = rel.to_string_lossy().replace('\\', "/");
        // The lint's own tables would trip the lint.
        if rel.starts_with("crates/lint/") {
            continue;
        }
        let src = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("theta-lint: cannot read {rel}: {e}");
                return ExitCode::FAILURE;
            }
        };
        scanned += 1;
        findings.extend(lint_file(&rel, &src));
    }

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("theta-lint: {scanned} files scanned, no secret-hygiene findings");
        ExitCode::SUCCESS
    } else {
        println!("theta-lint: {} finding(s) in {scanned} files", findings.len());
        ExitCode::FAILURE
    }
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name != "target" && name != "vendor" {
                collect_rs_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Lints one file; `file` is the workspace-relative path used both for
/// reporting and for [`NOT_SECRET`] matching.
fn lint_file(file: &str, raw: &str) -> Vec<Finding> {
    let src = strip_comments(raw);
    let structs = parse_structs(&src);
    let impls = parse_impls(&src);
    let base = Path::new(file)
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();

    let mut findings = Vec::new();
    for s in &structs {
        let named_secret = SECRET_TYPE_NAMES.contains(&s.name.as_str());
        let field_secret = s.fields.iter().any(|f| SECRET_FIELDS.contains(&f.as_str()));
        let exempt = NOT_SECRET.iter().any(|(f, t)| *f == base && *t == s.name);
        if (!named_secret && !field_secret) || exempt {
            continue;
        }

        for d in &s.derives {
            match d.as_str() {
                "Debug" => findings.push(Finding {
                    file: file.into(),
                    line: s.line,
                    rule: "debug-on-secret",
                    message: format!(
                        "secret-bearing type `{}` derives Debug; write a redacted impl",
                        s.name
                    ),
                }),
                "PartialEq" => findings.push(Finding {
                    file: file.into(),
                    line: s.line,
                    rule: "eq-on-secret",
                    message: format!(
                        "secret-bearing type `{}` derives PartialEq (short-circuiting, \
                         timing leaks where shares differ); provide `ct_eq` instead",
                        s.name
                    ),
                }),
                _ => {}
            }
        }

        let mut wiped = false;
        for im in impls.iter().filter(|im| im.type_name == s.name) {
            match im.trait_name.as_deref() {
                Some("Debug") if !im.body.contains("redacted") => findings.push(Finding {
                    file: file.into(),
                    line: im.line,
                    rule: "debug-on-secret",
                    message: format!(
                        "Debug impl for secret-bearing `{}` does not redact",
                        s.name
                    ),
                }),
                Some("Display") | Some("ToString") => findings.push(Finding {
                    file: file.into(),
                    line: im.line,
                    rule: "display-on-secret",
                    message: format!(
                        "{} impl on secret-bearing `{}`; secrets have no string form",
                        im.trait_name.as_deref().unwrap_or(""),
                        s.name
                    ),
                }),
                Some("PartialEq") => findings.push(Finding {
                    file: file.into(),
                    line: im.line,
                    rule: "eq-on-secret",
                    message: format!(
                        "PartialEq impl on secret-bearing `{}`; provide `ct_eq` instead",
                        s.name
                    ),
                }),
                Some("Drop") if im.body.contains("wipe") => wiped = true,
                _ => {}
            }
        }
        if !wiped {
            findings.push(Finding {
                file: file.into(),
                line: s.line,
                rule: "missing-wipe-on-drop",
                message: format!(
                    "secret-bearing type `{}` has no Drop impl that wipes its secrets",
                    s.name
                ),
            });
        }
    }

    findings.extend(find_secret_comparisons(file, &src));
    findings.sort_by_key(|f| f.line);
    findings
}

/// A struct definition: name, 1-based line, derive list, named fields.
struct StructDef {
    name: String,
    line: usize,
    derives: Vec<String>,
    fields: Vec<String>,
}

/// An impl block: optional trait (last path segment), self type (first
/// path segment of the `for` target), 1-based line, body text.
struct ImplDef {
    trait_name: Option<String>,
    type_name: String,
    line: usize,
    body: String,
}

fn parse_structs(src: &str) -> Vec<StructDef> {
    let mut out = Vec::new();
    let mut derives: Vec<String> = Vec::new();
    let bytes = src.as_bytes();
    let mut offset = 0usize;
    for (idx, line) in src.split_inclusive('\n').enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim_start();
        if trimmed.starts_with("#[") {
            if let Some(rest) = trimmed.strip_prefix("#[derive(") {
                if let Some(end) = rest.find(')') {
                    derives.extend(rest[..end].split(',').map(|d| {
                        d.trim().rsplit("::").next().unwrap_or("").to_string()
                    }));
                }
            }
            offset += line.len();
            continue;
        }
        if let Some(pos) = find_token(trimmed, "struct") {
            let after = &trimmed[pos + "struct".len()..];
            let name: String = after
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                // Named fields live between `{`..`}`; `;` first means a
                // tuple/unit struct with no named fields to inspect.
                let decl_start = offset + (line.len() - trimmed.len());
                let fields = match first_of(bytes, decl_start, b'{', b';') {
                    Some((b'{', open)) => {
                        brace_body(src, open).map(named_fields).unwrap_or_default()
                    }
                    _ => Vec::new(),
                };
                out.push(StructDef {
                    name,
                    line: line_no,
                    derives: std::mem::take(&mut derives),
                    fields,
                });
            }
        }
        if !trimmed.is_empty() {
            derives.clear();
        }
        offset += line.len();
    }
    out
}

fn parse_impls(src: &str) -> Vec<ImplDef> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for (idx, line) in src.split_inclusive('\n').enumerate() {
        let line_no = idx + 1;
        let trimmed = line.trim_start();
        if let Some(pos) = find_token(trimmed, "impl") {
            // Header runs from `impl` to the block's opening brace.
            let start = offset + (line.len() - trimmed.len()) + pos;
            if let Some(open) = src[start..].find('{').map(|i| start + i) {
                let header = &src[start..open];
                let (trait_name, type_name) = parse_impl_header(header);
                if !type_name.is_empty() {
                    let body = brace_body(src, open).unwrap_or("").to_string();
                    out.push(ImplDef { trait_name, type_name, line: line_no, body });
                }
            }
        }
        offset += line.len();
    }
    out
}

/// Splits an impl header (without the `{`) into `(trait, self type)`.
/// `impl<T> fmt::Debug for Share<T>` → `(Some("Debug"), "Share")`;
/// `impl Share` → `(None, "Share")`.
fn parse_impl_header(header: &str) -> (Option<String>, String) {
    let mut rest = header.trim_start();
    rest = rest.strip_prefix("impl").unwrap_or(rest);
    // Skip generic parameters on the impl itself.
    if rest.starts_with('<') {
        let mut depth = 0usize;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[cut..];
    }
    let rest = rest.trim();
    match rest.split_once(" for ") {
        Some((tr, ty)) => (Some(last_segment(tr)), first_type_name(ty)),
        None => (None, first_type_name(rest)),
    }
}

fn last_segment(path: &str) -> String {
    path.trim()
        .rsplit("::")
        .next()
        .unwrap_or("")
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect()
}

fn first_type_name(ty: &str) -> String {
    // `theta::Share<T> where ...` → `Share`: last path segment of the
    // leading path, cut at generics/whitespace.
    let head: &str = ty
        .trim()
        .split(|c: char| c == '<' || c.is_whitespace())
        .next()
        .unwrap_or("");
    last_segment(head)
}

/// Finds `needle` in `hay` as a standalone word.
fn find_token(hay: &str, needle: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(i) = hay[from..].find(needle) {
        let at = from + i;
        let before_ok = at == 0
            || !hay[..at].chars().next_back().is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = at + needle.len();
        let after_ok = after >= hay.len()
            || !hay[after..].chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return Some(at);
        }
        from = after;
    }
    None
}

/// Returns the first of two bytes at/after `from`, with its offset.
fn first_of(bytes: &[u8], from: usize, a: u8, b: u8) -> Option<(u8, usize)> {
    bytes[from..]
        .iter()
        .position(|&c| c == a || c == b)
        .map(|i| (bytes[from + i], from + i))
}

/// The text between the brace at `open` and its matching close brace.
fn brace_body(src: &str, open: usize) -> Option<&str> {
    let mut depth = 0usize;
    for (i, c) in src[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&src[open + 1..open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Extracts named-field identifiers from a struct body.
fn named_fields(body: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut depth = 0usize;
    for line in body.lines() {
        let trimmed = line.trim();
        if depth == 0 && !trimmed.starts_with('#') {
            let decl = trimmed.strip_prefix("pub").map(str::trim_start).unwrap_or(trimmed);
            // `pub(crate) name: Type,` — drop the visibility scope.
            let decl = if decl.starts_with('(') {
                decl.split_once(')').map(|(_, r)| r.trim_start()).unwrap_or(decl)
            } else {
                decl
            };
            if let Some((name, _)) = decl.split_once(':') {
                let name = name.trim();
                if !name.is_empty()
                    && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                {
                    fields.push(name.to_string());
                }
            }
        }
        depth += line.matches(['{', '(']).count();
        depth = depth.saturating_sub(line.matches(['}', ')']).count());
    }
    fields
}

/// Flags `==` / `!=` whose left or right operand is a field access to a
/// name in [`SECRET_FIELDS`].
fn find_secret_comparisons(file: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let bytes = src.as_bytes();
    let mut line_no = 1usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line_no += 1;
            i += 1;
            continue;
        }
        let is_eq = c == b'=' && bytes.get(i + 1) == Some(&b'=');
        let is_ne = c == b'!' && bytes.get(i + 1) == Some(&b'=');
        if (is_eq || is_ne)
            // Not `<=`, `>=`, `===`-ish or compound assignment.
            && !matches!(bytes.get(i.wrapping_sub(1)), Some(b'=' | b'<' | b'>' | b'!'))
            && bytes.get(i + 2) != Some(&b'=')
        {
            let lhs = operand_backward(src, i);
            let rhs = operand_forward(src, i + 2);
            for op in [lhs, rhs].iter().flatten() {
                if let Some(field) = op.rsplit('.').next() {
                    if op.contains('.') && SECRET_FIELDS.contains(&field) {
                        findings.push(Finding {
                            file: file.into(),
                            line: line_no,
                            rule: "eq-on-secret",
                            message: format!(
                                "secret field `{op}` compared with `{}`; use `ct_eq`",
                                if is_eq { "==" } else { "!=" }
                            ),
                        });
                        break;
                    }
                }
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    findings
}

fn operand_backward(src: &str, op_at: usize) -> Option<String> {
    let head = src[..op_at].trim_end();
    let start = head
        .rfind(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let op = &head[start..];
    (!op.is_empty()).then(|| op.to_string())
}

fn operand_forward(src: &str, from: usize) -> Option<String> {
    let tail = src[from..].trim_start();
    let end = tail
        .find(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.'))
        .unwrap_or(tail.len());
    let op = &tail[..end];
    (!op.is_empty()).then(|| op.to_string())
}

/// Replaces `//` and (nested) `/* */` comments with spaces, preserving
/// newlines, string/char literals and raw strings, so prose mentioning
/// `Debug` or `==` never reaches the rules.
///
/// Delegates to the shared lexer: the old local implementation treated
/// `\` inside raw strings as an escape and missed `"#`-style closers,
/// so an `r#"..."#` literal could swallow the rest of the file.
fn strip_comments(src: &str) -> String {
    theta_lint::lexer::strip_comments(src)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(file: &str, src: &str) -> Vec<&'static str> {
        lint_file(file, src).into_iter().map(|f| f.rule).collect()
    }

    const CLEAN: &str = r#"
        #[derive(Clone)]
        pub struct KeyShare {
            pub id: u16,
            x_i: Scalar,
        }
        impl std::fmt::Debug for KeyShare {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                f.debug_struct("KeyShare").field("x_i", &"<redacted>").finish()
            }
        }
        impl Drop for KeyShare {
            fn drop(&mut self) { self.x_i.wipe(); }
        }
        impl KeyShare {
            pub fn ct_eq(&self, other: &KeyShare) -> bool {
                self.id == other.id && self.x_i.ct_eq(&other.x_i)
            }
        }
    "#;

    #[test]
    fn clean_share_passes() {
        assert_eq!(rules("sg02.rs", CLEAN), Vec::<&str>::new());
    }

    #[test]
    fn derived_debug_and_eq_flagged() {
        let src = "#[derive(Clone, Debug, PartialEq)]\n\
                   pub struct KeyShare { x_i: Scalar }\n\
                   impl Drop for KeyShare { fn drop(&mut self) { self.x_i.wipe(); } }\n";
        let got = rules("sg02.rs", src);
        assert!(got.contains(&"debug-on-secret"), "{got:?}");
        assert!(got.contains(&"eq-on-secret"), "{got:?}");
    }

    #[test]
    fn unredacted_debug_impl_flagged() {
        let src = "pub struct KeyShare { x_i: Scalar }\n\
                   impl fmt::Debug for KeyShare {\n\
                       fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n\
                           write!(f, \"{:?}\", self.x_i)\n\
                       }\n\
                   }\n\
                   impl Drop for KeyShare { fn drop(&mut self) { self.x_i.wipe(); } }\n";
        assert_eq!(rules("sg02.rs", src), vec!["debug-on-secret"]);
    }

    #[test]
    fn display_flagged_even_when_redacted() {
        let src = "pub struct KeyShare { x_i: Scalar }\n\
                   impl fmt::Display for KeyShare {\n\
                       fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {\n\
                           write!(f, \"redacted\")\n\
                       }\n\
                   }\n\
                   impl Drop for KeyShare { fn drop(&mut self) { self.x_i.wipe(); } }\n";
        assert_eq!(rules("sg02.rs", src), vec!["display-on-secret"]);
    }

    #[test]
    fn missing_drop_wipe_flagged() {
        let src = "pub struct KeyShare { x_i: Scalar }\n";
        assert_eq!(rules("sg02.rs", src), vec!["missing-wipe-on-drop"]);
        let unwiped = "pub struct KeyShare { x_i: Scalar }\n\
                       impl Drop for KeyShare { fn drop(&mut self) { log(self.id); } }\n";
        assert_eq!(rules("sg02.rs", unwiped), vec!["missing-wipe-on-drop"]);
    }

    #[test]
    fn secret_field_comparison_flagged_but_ct_eq_is_not() {
        let src = format!("{CLEAN}\nfn bad(a: &KeyShare, b: &KeyShare) -> bool {{ a.x_i == b.x_i }}\n");
        assert_eq!(rules("sg02.rs", &src), vec!["eq-on-secret"]);
    }

    #[test]
    fn field_heuristic_classifies_unknown_types() {
        let src = "#[derive(Debug)]\npub struct Opaque { secret_share: Scalar }\n\
                   impl Drop for Opaque { fn drop(&mut self) { self.secret_share.wipe(); } }\n";
        assert_eq!(rules("anything.rs", src), vec!["debug-on-secret"]);
    }

    #[test]
    fn allowlist_and_public_types_skipped() {
        // sh00's SignatureShare carries a *public* x_i.
        let sh00 = "#[derive(Clone, Debug, PartialEq)]\n\
                    pub struct SignatureShare { x_i: BigUint }\n";
        assert_eq!(rules("crates/schemes/src/sh00.rs", sh00), Vec::<&str>::new());
        // Public types with public fields are never secret-bearing.
        let public = "#[derive(Clone, Debug, PartialEq)]\npub struct PublicKey { y: Point }\n";
        assert_eq!(rules("sg02.rs", public), Vec::<&str>::new());
    }

    #[test]
    fn comments_and_strings_do_not_trip_rules() {
        let src = "// This struct must never derive(Debug) on x_i == secret\n\
                   /* impl Display for KeyShare */\n\
                   pub struct Harmless { id: u16 }\n";
        assert_eq!(rules("sg02.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn tuple_structs_and_generics_parse() {
        let src = "pub struct Wrapper(Vec<u8>);\n\
                   impl<T: Clone> Holder<T> { fn get(&self) {} }\n\
                   impl core::fmt::Debug for Wrapper {\n fn f() {}\n }\n";
        assert_eq!(rules("x.rs", src), Vec::<&str>::new());
    }

    #[test]
    fn raw_strings_do_not_derail_the_scan() {
        // Regression: the old strip_comments treated `\` inside raw
        // strings as an escape and missed `"#` closers, so the literal
        // below swallowed the rest of the file and the real derive was
        // never seen.
        let src = "const T: &str = r#\"a \\ quote: \" and // not a comment\"#;\n\
                   #[derive(Debug)]\npub struct KeyShare { x_i: Scalar }\n\
                   impl Drop for KeyShare { fn drop(&mut self) { self.x_i.wipe(); } }\n";
        assert_eq!(rules("sg02.rs", src), vec!["debug-on-secret"]);
    }
}
