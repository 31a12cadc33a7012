//! Source-level invariant lint for the aipow workspace.
//!
//! A deliberately lightweight line/token scanner — no `syn`, no AST —
//! that enforces the repo's concurrency and robustness invariants
//! (DESIGN.md §11 catalogues them):
//!
//! - **`relaxed-justification`**: every `Ordering::Relaxed` carries a
//!   `// relaxed:` justification on the same line or immediately above;
//! - **`admission-lock`**: admission-path modules acquire no
//!   `Mutex`/`RwLock` outside the `aipow-shard` API (the sharded crate
//!   itself *is* the allowlist);
//! - **`no-unwrap`**: no `.unwrap()`, undocumented `.expect(...)`, or
//!   `panic!` in production `src/` (tests, benches, examples, and
//!   `#[cfg(test)]` blocks are exempt; `.expect` whose message contains
//!   `invariant` is a documented invariant and allowed);
//! - **`raw-keyed-state`**: admission-path modules build no raw
//!   `HashMap`/`BTreeMap` (per-client keyed state must go through the
//!   bounded `aipow-shard` APIs);
//! - **`trace-blocking`**: the tracer's span-emission hot files acquire
//!   no blocking lock (`.lock()`/`.read()`/`.write()`) — emission must
//!   stay `try_lock`-or-drop so tracing can never stall the admission
//!   path it observes (snapshot/dump paths opt out explicitly);
//! - **`reactor-blocking`**: the net reactor's event-loop files make no
//!   blocking call (`thread::sleep`, blocking channel `.recv()`,
//!   `.join()`, blocking locks, `read_exact`/`read_to_end`/`write_all`)
//!   — one reactor thread serves tens of thousands of connections, so
//!   the only place it may park is `Poller::wait`;
//! - **`forbid-unsafe`**: every crate root carries
//!   `#![forbid(unsafe_code)]` (or forbids it via `[lints.rust]`); the
//!   baseline lists the two roots that `deny` instead (`vendor/polling`
//!   for its FFI, `aipow-crypto` for its one SHA-NI call);
//! - **`unsafe-site`**: every `unsafe` in production `src/` has a
//!   `// SAFETY:` comment on the line above and an
//!   `is_x86_feature_detected!` guard within the three lines above — the
//!   only shape of `unsafe` this workspace sanctions outside `vendor/`.
//!
//! Any line can opt out with `// lint:allow(<rule>) <reason>` in its
//! trailing comment; pre-existing debt lives in the committed baseline
//! (`crates/analyze/baseline.txt`), maintained with
//! `--update-baseline`. The scanner understands line/block comments,
//! string and raw-string literals (including multi-line), and skips
//! `#[cfg(test)]`-gated blocks, so commented-out code and test fixtures
//! never fire rules.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod selftest;

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Files on the admission hot path: per-client keyed state and lock
/// acquisition are restricted here (rules `admission-lock` and
/// `raw-keyed-state`). `aipow-shard` is deliberately absent — it
/// implements the allowed sharded API.
pub const ADMISSION_PATH_FILES: &[&str] = &[
    "crates/core/src/framework.rs",
    "crates/core/src/pipeline.rs",
    "crates/core/src/token_bucket.rs",
    "crates/core/src/cost.rs",
    "crates/core/src/audit.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/tap.rs",
    "crates/online/src/recorder.rs",
    "crates/pow/src/replay.rs",
];

/// Files on the span-emission hot path of `aipow-trace`: a blocking lock
/// here turns the observability layer into a stall source for the very
/// pipeline it instruments, so rule `trace-blocking` bans `.lock()` /
/// `.read()` / `.write()` outright (the `try_lock`-and-drop idiom does
/// not match). Snapshot/dump code opts out with
/// `// lint:allow(trace-blocking) <reason>`.
pub const TRACE_HOT_FILES: &[&str] = &["crates/trace/src/tracer.rs", "crates/trace/src/ring.rs"];

/// Files that run on a reactor event-loop thread (rule
/// `reactor-blocking`): one thread multiplexes every connection it
/// owns, so any call that can park it — a sleep, a blocking channel
/// receive, a thread join, a blocking lock, or a
/// read-exactly/write-fully loop on a socket — stalls *all* of them.
/// The only sanctioned parking point is `Poller::wait`, and socket I/O
/// must stay single-shot nonblocking reads/writes that surface
/// `WouldBlock`. `gate.rs` is deliberately absent: its accept-time
/// mutex is shared bookkeeping with the server API thread, O(1) inside
/// the critical section, and audited separately.
pub const REACTOR_HOT_FILES: &[&str] = &[
    "crates/net/src/reactor/mod.rs",
    "crates/net/src/reactor/conn.rs",
    "crates/net/src/reactor/dispatch.rs",
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (e.g. `no-unwrap`).
    pub rule: &'static str,
    /// Repo-relative path, forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line's code, whitespace-collapsed (also the
    /// baseline key, so findings survive line drift).
    pub excerpt: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}\n    {}",
            self.path, self.line, self.rule, self.message, self.excerpt
        )
    }
}

/// Collapses runs of whitespace so baseline keys survive reformatting.
fn normalize(code: &str) -> String {
    code.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The scanner's per-line output: the line with comments and string
/// contents removed (`code`), the comment text (`comment`), and the
/// contents of string literals that started on this line (`strings`).
#[derive(Debug, Default, Clone)]
struct SplitLine {
    code: String,
    comment: String,
    strings: String,
}

/// Cross-line lexer state: inside a block comment (with nesting
/// depth), or inside a (possibly raw) string literal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Code,
    Block(usize),
    Str,
    RawStr(usize),
}

/// Splits one line into code / comment / string-content given the
/// lexer state carried over from the previous line.
fn split_line(line: &str, state: &mut LexState) -> SplitLine {
    let mut out = SplitLine::default();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match *state {
            LexState::Block(depth) => {
                if line[i..].starts_with("*/") {
                    *state = if depth > 1 {
                        LexState::Block(depth - 1)
                    } else {
                        LexState::Code
                    };
                    i += 2;
                } else if line[i..].starts_with("/*") {
                    *state = LexState::Block(depth + 1);
                    i += 2;
                } else {
                    out.comment.push(bytes[i] as char);
                    i += 1;
                }
            }
            LexState::Str => {
                if bytes[i] == b'\\' {
                    i += 2; // skip the escaped byte (may run past EOL)
                } else if bytes[i] == b'"' {
                    *state = LexState::Code;
                    out.code.push('"'); // closing quote stays in code
                    i += 1;
                } else {
                    out.strings.push(bytes[i] as char);
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                let close: String = std::iter::once('"')
                    .chain("#".repeat(hashes).chars())
                    .collect();
                if line[i..].starts_with(&close) {
                    *state = LexState::Code;
                    out.code.push('"');
                    i += close.len();
                } else {
                    out.strings.push(bytes[i] as char);
                    i += 1;
                }
            }
            LexState::Code => {
                if line[i..].starts_with("//") {
                    out.comment.push_str(&line[i + 2..]);
                    i = bytes.len();
                } else if line[i..].starts_with("/*") {
                    *state = LexState::Block(1);
                    i += 2;
                } else if bytes[i] == b'"' {
                    *state = LexState::Str;
                    out.code.push('"');
                    i += 1;
                } else if bytes[i] == b'r'
                    && (i + 1 < bytes.len())
                    && (bytes[i + 1] == b'"' || bytes[i + 1] == b'#')
                    && !prev_is_ident(bytes, i)
                {
                    // r"..." or r#"..."# raw string opener.
                    let mut j = i + 1;
                    let mut hashes = 0;
                    while j < bytes.len() && bytes[j] == b'#' {
                        hashes += 1;
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b'"' {
                        *state = LexState::RawStr(hashes);
                        out.code.push('"');
                        i = j + 1;
                    } else {
                        out.code.push(bytes[i] as char);
                        i += 1;
                    }
                } else if bytes[i] == b'\'' {
                    // Char literal or lifetime. A char literal is
                    // 'x' or '\x' — consume it so '"' inside one
                    // doesn't open a string.
                    if i + 2 < bytes.len() && bytes[i + 1] == b'\\' {
                        let end = line[i + 2..].find('\'').map(|p| i + 2 + p + 1);
                        if let Some(end) = end {
                            out.code.push_str("' '");
                            i = end;
                            continue;
                        }
                    } else if i + 2 < bytes.len() && bytes[i + 2] == b'\'' {
                        out.code.push_str("' '");
                        i += 3;
                        continue;
                    }
                    out.code.push('\'');
                    i += 1;
                } else {
                    out.code.push(bytes[i] as char);
                    i += 1;
                }
            }
        }
    }
    if *state == LexState::Str {
        // Ordinary string literals cannot actually span lines without
        // a trailing backslash; treat EOL as an implicit close rather
        // than poisoning the rest of the file on a lexer miss.
        if !line.ends_with('\\') {
            *state = LexState::Code;
        }
    }
    out
}

fn prev_is_ident(bytes: &[u8], i: usize) -> bool {
    i > 0 && (bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_')
}

/// Whether `code` contains `word` as a whole identifier (`unsafe`, not
/// `unsafe_code`).
fn has_word(code: &str, word: &str) -> bool {
    let bytes = code.as_bytes();
    code.match_indices(word).any(|(at, _)| {
        let end = at + word.len();
        !prev_is_ident(bytes, at)
            && !(end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_'))
    })
}

/// Whether the line's trailing comment or the contiguous comment
/// block right above it opts the line out of `rule`.
fn has_allow(comment: &str, hanging: &str, rule: &str) -> bool {
    let marker = format!("lint:allow({rule})");
    comment.contains(&marker) || hanging.contains(&marker)
}

/// Per-file scan context.
#[derive(Debug, Clone, Copy)]
pub struct FileContext {
    /// File is on the admission hot path (extra rules apply).
    pub admission_path: bool,
    /// File is production source (`no-unwrap` applies). False for
    /// tests/, benches/, examples/, build scripts, and vendor code.
    pub production: bool,
    /// File is on the tracer's span-emission hot path (rule
    /// `trace-blocking` applies).
    pub trace_hot: bool,
    /// File runs on a reactor event-loop thread (rule
    /// `reactor-blocking` applies).
    pub reactor_hot: bool,
}

/// Scans one file's content. `rel` is the repo-relative path used in
/// reports and baseline keys.
pub fn scan_file(rel: &str, content: &str, ctx: FileContext) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut state = LexState::Code;
    // Depth of `{` nesting inside a #[cfg(test)]-gated block; None when
    // not skipping. Armed by the attribute, engaged at its first `{`.
    let mut test_block: Option<i64> = None;
    let mut test_attr_pending = false;
    // Comment text of the contiguous comment-only lines right above.
    let mut hanging_comment = String::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut splits: Vec<SplitLine> = Vec::with_capacity(lines.len());
    for line in &lines {
        splits.push(split_line(line, &mut state));
    }

    for (idx, split) in splits.iter().enumerate() {
        let lineno = idx + 1;
        let code = split.code.as_str();
        let comment = split.comment.as_str();
        let braces = code.matches('{').count() as i64 - code.matches('}').count() as i64;

        if let Some(depth) = test_block.as_mut() {
            *depth += braces;
            if *depth <= 0 {
                test_block = None;
            }
            hanging_comment.clear();
            continue;
        }
        if test_attr_pending {
            if code.contains('{') {
                test_attr_pending = false;
                let depth = braces.max(1);
                if braces > 0 {
                    test_block = Some(depth);
                    hanging_comment.clear();
                    continue;
                }
                // `{` and `}` balanced on one line: gated item already
                // over.
                continue;
            }
            if code.contains(';') {
                // e.g. `#[cfg(test)] use ...;` — nothing to skip.
                test_attr_pending = false;
            }
            continue;
        }
        if code.contains("#[cfg(test)]") {
            test_attr_pending = true;
            // Handle `#[cfg(test)] mod t { ... }` openers on one line.
            if braces > 0 {
                test_attr_pending = false;
                test_block = Some(braces);
            }
            hanging_comment.clear();
            continue;
        }

        let excerpt = normalize(code);

        // relaxed-justification -------------------------------------
        if code.contains("Ordering::Relaxed")
            && ctx.production
            && !comment.contains("relaxed:")
            && !hanging_comment.contains("relaxed:")
            && !has_allow(comment, &hanging_comment, "relaxed-justification")
        {
            violations.push(Violation {
                rule: "relaxed-justification",
                path: rel.to_string(),
                line: lineno,
                excerpt: excerpt.clone(),
                message: "Ordering::Relaxed without a `// relaxed:` justification \
                          (same line or the comment block above)"
                    .into(),
            });
        }

        // no-unwrap --------------------------------------------------
        if ctx.production {
            if code.contains(".unwrap()") && !has_allow(comment, &hanging_comment, "no-unwrap") {
                violations.push(Violation {
                    rule: "no-unwrap",
                    path: rel.to_string(),
                    line: lineno,
                    excerpt: excerpt.clone(),
                    message: ".unwrap() in production source — return an error or use \
                              .expect(\"... invariant ...\") documenting why it cannot fail"
                        .into(),
                });
            }
            // `.expect("` (string-literal message) is Option/Result::expect;
            // a bare trailing `.expect(` is a rustfmt-wrapped call whose
            // message starts on the next line. Other argument shapes (e.g.
            // a parser's `self.expect(&Tok::Comma, ...)`) are domain
            // methods, not the std combinator.
            let is_std_expect =
                code.contains(".expect(\"") || code.trim_end().ends_with(".expect(");
            if is_std_expect && !has_allow(comment, &hanging_comment, "no-unwrap") {
                // The invariant message may sit on this line or (for
                // rustfmt-wrapped calls) the next couple of lines.
                let documented = (idx..(idx + 3).min(splits.len()))
                    .any(|k| splits[k].strings.to_lowercase().contains("invariant"));
                if !documented {
                    violations.push(Violation {
                        rule: "no-unwrap",
                        path: rel.to_string(),
                        line: lineno,
                        excerpt: excerpt.clone(),
                        message: ".expect() whose message does not document an invariant \
                                  (include the word \"invariant\" in the message)"
                            .into(),
                    });
                }
            }
            if (code.contains("panic!(") || code.contains("unreachable!("))
                && !has_allow(comment, &hanging_comment, "no-unwrap")
            {
                violations.push(Violation {
                    rule: "no-unwrap",
                    path: rel.to_string(),
                    line: lineno,
                    excerpt: excerpt.clone(),
                    message: "panic in production source — return an error instead".into(),
                });
            }
        }

        // admission-lock ---------------------------------------------
        if ctx.admission_path && !has_allow(comment, &hanging_comment, "admission-lock") {
            for token in [".lock()", ".read()", ".write()"] {
                if code.contains(token) {
                    violations.push(Violation {
                        rule: "admission-lock",
                        path: rel.to_string(),
                        line: lineno,
                        excerpt: excerpt.clone(),
                        message: format!(
                            "`{token}` acquisition in an admission-path module — per-client \
                             state must go through the aipow-shard API (or justify with \
                             `// lint:allow(admission-lock) <reason>`)"
                        ),
                    });
                }
            }
        }

        // trace-blocking ---------------------------------------------
        if ctx.trace_hot && !has_allow(comment, &hanging_comment, "trace-blocking") {
            for token in [".lock()", ".read()", ".write()"] {
                if code.contains(token) {
                    violations.push(Violation {
                        rule: "trace-blocking",
                        path: rel.to_string(),
                        line: lineno,
                        excerpt: excerpt.clone(),
                        message: format!(
                            "blocking `{token}` in a span-emission hot file — tracing must \
                             be try_lock-or-drop so it can never stall the admission path \
                             (snapshot/dump code may justify with \
                             `// lint:allow(trace-blocking) <reason>`)"
                        ),
                    });
                }
            }
        }

        // reactor-blocking -------------------------------------------
        if ctx.reactor_hot && !has_allow(comment, &hanging_comment, "reactor-blocking") {
            for token in [
                ".lock()",
                ".read()",
                ".write()",
                "thread::sleep",
                ".recv()",
                ".join()",
                ".read_exact(",
                ".read_to_end(",
                ".write_all(",
            ] {
                if code.contains(token) {
                    violations.push(Violation {
                        rule: "reactor-blocking",
                        path: rel.to_string(),
                        line: lineno,
                        excerpt: excerpt.clone(),
                        message: format!(
                            "blocking `{token}` in a reactor event-loop file — one reactor \
                             thread serves every connection it owns, so it may park only in \
                             `Poller::wait`; use nonblocking I/O, `try_recv`, and `try_lock` \
                             (or justify with `// lint:allow(reactor-blocking) <reason>`)"
                        ),
                    });
                }
            }
        }

        // unsafe-site ------------------------------------------------
        if ctx.production && has_word(code, "unsafe") {
            let documented = idx > 0
                && normalize(&splits[idx - 1].code).is_empty()
                && splits[idx - 1].comment.trim_start().starts_with("SAFETY:");
            let guarded = splits[idx.saturating_sub(3)..idx]
                .iter()
                .any(|above| above.code.contains("is_x86_feature_detected!"));
            if !(documented && guarded) {
                violations.push(Violation {
                    rule: "unsafe-site",
                    path: rel.to_string(),
                    line: lineno,
                    excerpt: excerpt.clone(),
                    message: "`unsafe` needs a `// SAFETY:` comment on the line above and an \
                              `is_x86_feature_detected!` guard within the three lines above it"
                        .into(),
                });
            }
        }

        // raw-keyed-state --------------------------------------------
        if ctx.admission_path && !has_allow(comment, &hanging_comment, "raw-keyed-state") {
            for token in ["HashMap::new(", "HashMap::with_capacity(", "BTreeMap::new("] {
                if code.contains(token) {
                    violations.push(Violation {
                        rule: "raw-keyed-state",
                        path: rel.to_string(),
                        line: lineno,
                        excerpt: excerpt.clone(),
                        message: format!(
                            "raw `{}` in an admission-path module — per-client keyed state \
                             must use the bounded aipow-shard structures (or justify with \
                             `// lint:allow(raw-keyed-state) <reason>`)",
                            token.trim_end_matches('(')
                        ),
                    });
                }
            }
        }

        // Maintain the hanging comment block for the next line.
        if normalize(code).is_empty() {
            if !comment.is_empty() {
                hanging_comment.push_str(comment);
                hanging_comment.push('\n');
            }
            // A fully blank line keeps the hanging comment: rustfmt
            // never separates a justification from its statement, but
            // being lenient here costs nothing.
        } else {
            hanging_comment.clear();
        }
    }
    violations
}

/// Checks a crate root for `#![forbid(unsafe_code)]`, falling back to
/// the crate manifest's `[lints.rust] unsafe_code = "forbid"`.
pub fn check_forbid_unsafe(
    rel: &str,
    root_source: &str,
    manifest: Option<&str>,
) -> Option<Violation> {
    if root_source.contains("#![forbid(unsafe_code)]") {
        return None;
    }
    if let Some(manifest) = manifest {
        if manifest.contains("unsafe_code = \"forbid\"") {
            return None;
        }
    }
    Some(Violation {
        rule: "forbid-unsafe",
        path: rel.to_string(),
        line: 1,
        // Non-empty and content-independent: the baseline key must
        // round-trip through `Baseline::parse`, which trims trailing
        // whitespace (an empty excerpt would leave a dangling tab).
        excerpt: "(crate root)".into(),
        message: "crate root missing `#![forbid(unsafe_code)]` (and its manifest does not \
                  forbid unsafe via [lints.rust])"
            .into(),
    })
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Recursively collects `.rs` files under `dir`, repo-relative.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(_) => return Ok(()), // absent dir (e.g. crate without tests/)
    };
    for entry in entries {
        let path = entry?.path();
        if path.is_dir() {
            rust_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn to_rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Scans the whole workspace under `root` (the repo checkout).
///
/// Production rules run over the facade crate's `src/` and every
/// `crates/*/src`; the `forbid-unsafe` rule additionally covers every
/// `vendor/*` crate root.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    // The workspace root is itself a crate (the `aipow` facade).
    let mut production_dirs: Vec<PathBuf> = vec![root.to_path_buf()];
    let mut vendor_dirs: Vec<PathBuf> = Vec::new();
    for (area, dirs) in [
        ("crates", &mut production_dirs),
        ("vendor", &mut vendor_dirs),
    ] {
        if let Ok(entries) = std::fs::read_dir(root.join(area)) {
            dirs.extend(
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.path())
                    .filter(|p| p.is_dir()),
            );
        }
    }
    production_dirs.sort();
    vendor_dirs.sort();
    for (crate_dir, production) in production_dirs
        .iter()
        .map(|d| (d, true))
        .chain(vendor_dirs.iter().map(|d| (d, false)))
    {
        let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml")).ok();
        // Crate root: src/lib.rs, else src/main.rs.
        let src_root = ["src/lib.rs", "src/main.rs"]
            .iter()
            .map(|p| crate_dir.join(p))
            .find(|p| p.is_file());
        if let Some(src_root) = src_root {
            let rel = to_rel(root, &src_root);
            if let Ok(content) = std::fs::read_to_string(&src_root) {
                violations.extend(check_forbid_unsafe(&rel, &content, manifest.as_deref()));
            }
        }
        if !production {
            continue; // vendor code: forbid-unsafe only
        }
        let mut files = Vec::new();
        rust_files(&crate_dir.join("src"), &mut files)?;
        files.sort();
        for path in files {
            let rel = to_rel(root, &path);
            let content = std::fs::read_to_string(&path)?;
            let ctx = FileContext {
                admission_path: ADMISSION_PATH_FILES.contains(&rel.as_str()),
                production: true,
                trace_hot: TRACE_HOT_FILES.contains(&rel.as_str()),
                reactor_hot: REACTOR_HOT_FILES.contains(&rel.as_str()),
            };
            violations.extend(scan_file(&rel, &content, ctx));
        }
    }
    Ok(violations)
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// A committed multiset of accepted pre-existing violations, keyed by
/// `rule \t path \t normalized-code` — content-addressed, so findings
/// survive unrelated line insertions above them.
#[derive(Debug, Default)]
pub struct Baseline {
    counts: HashMap<String, usize>,
}

impl Baseline {
    fn key(v: &Violation) -> String {
        format!("{}\t{}\t{}", v.rule, v.path, v.excerpt)
    }

    /// Parses the committed baseline file format (one key per line,
    /// `#` comments and blanks ignored).
    pub fn parse(content: &str) -> Self {
        let mut counts = HashMap::new();
        for line in content.lines() {
            let line = line.trim_end();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            *counts.entry(line.to_string()).or_insert(0) += 1;
        }
        Baseline { counts }
    }

    /// Serializes violations into the baseline file format.
    pub fn render(violations: &[Violation]) -> String {
        let mut keys: Vec<String> = violations.iter().map(Self::key).collect();
        keys.sort();
        let mut out = String::from(
            "# aipow-analyze baseline: accepted pre-existing violations.\n\
             # One entry per finding: rule<TAB>path<TAB>normalized line.\n\
             # Regenerate with `cargo run -p aipow-analyze -- --update-baseline`.\n",
        );
        for key in keys {
            out.push_str(&key);
            out.push('\n');
        }
        out
    }

    /// Splits `violations` into (new, suppressed-by-baseline) and
    /// returns the count of stale (unmatched) baseline entries.
    pub fn apply(&self, violations: Vec<Violation>) -> (Vec<Violation>, usize, usize) {
        let mut remaining = self.counts.clone();
        let mut fresh = Vec::new();
        let mut suppressed = 0;
        for v in violations {
            let key = Self::key(&v);
            match remaining.get_mut(&key) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    suppressed += 1;
                }
                _ => fresh.push(v),
            }
        }
        let stale: usize = remaining.values().sum();
        (fresh, suppressed, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROD: FileContext = FileContext {
        admission_path: false,
        production: true,
        trace_hot: false,
        reactor_hot: false,
    };
    const ADMISSION: FileContext = FileContext {
        admission_path: true,
        production: true,
        trace_hot: false,
        reactor_hot: false,
    };
    const TRACE_HOT: FileContext = FileContext {
        admission_path: false,
        production: true,
        trace_hot: true,
        reactor_hot: false,
    };
    const REACTOR_HOT: FileContext = FileContext {
        admission_path: false,
        production: true,
        trace_hot: false,
        reactor_hot: true,
    };

    fn rules(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn relaxed_without_justification_fires() {
        let v = scan_file("x.rs", "a.fetch_add(1, Ordering::Relaxed);\n", PROD);
        assert_eq!(rules(&v), ["relaxed-justification"]);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn relaxed_with_same_line_justification_passes() {
        let src = "a.fetch_add(1, Ordering::Relaxed); // relaxed: pure counter\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
    }

    #[test]
    fn relaxed_with_hanging_justification_passes() {
        let src = "// relaxed: counter, read only by metrics\n\
                   a.fetch_add(1, Ordering::Relaxed);\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
        // ...including with a doc-style gap line.
        let src = "// relaxed: counter\n\n a.store(0, Ordering::Relaxed);\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
    }

    #[test]
    fn justification_does_not_leak_past_code() {
        let src = "// relaxed: the first one\n\
                   a.store(1, Ordering::Relaxed);\n\
                   b.store(2, Ordering::Relaxed);\n";
        let v = scan_file("x.rs", src, PROD);
        assert_eq!(rules(&v), ["relaxed-justification"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn unwrap_and_panic_fire_expect_invariant_passes() {
        let src = "let a = x.unwrap();\n\
                   let b = y.expect(\"queue non-empty: invariant\");\n\
                   let c = z.expect(\"oops\");\n\
                   panic!(\"boom\");\n";
        let v = scan_file("x.rs", src, PROD);
        assert_eq!(rules(&v), ["no-unwrap", "no-unwrap", "no-unwrap"]);
        assert_eq!(
            v.iter().map(|v| v.line).collect::<Vec<_>>(),
            vec![1, 3, 4],
            "the documented expect on line 2 is allowed"
        );
    }

    #[test]
    fn unwrap_inside_strings_and_comments_ignored() {
        let src = "// call .unwrap() here would be bad\n\
                   let s = \"don't .unwrap() me\";\n\
                   /* .unwrap()\n  spanning block */\n\
                   let ok = 1;\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
    }

    #[test]
    fn domain_expect_methods_do_not_fire() {
        // A parser's own `expect` helper takes a token, not a message.
        let src = "self.expect(&Tok::Comma, \"after field\")?;\n\
                   parser.expect(Token::Eof)?;\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
        // A rustfmt-wrapped std expect still fires...
        let src = "let v = maybe\n    .expect(\n        \"present\",\n    );\n";
        assert_eq!(rules(&scan_file("x.rs", src, PROD)), ["no-unwrap"]);
        // ...and is allowed when the wrapped message documents an invariant.
        let src = "let v = maybe\n    .expect(\n        \"queue invariant\",\n    );\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
    }

    #[test]
    fn unwrap_or_variants_do_not_fire() {
        let src = "let a = x.unwrap_or(0);\nlet b = y.unwrap_or_else(|| 1);\n\
                   let c = z.unwrap_or_default();\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
    }

    #[test]
    fn cfg_test_blocks_are_exempt() {
        let src = "let top = maybe();\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn f() { x.unwrap(); panic!(\"fine in tests\"); }\n\
                   }\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
    }

    #[test]
    fn code_after_cfg_test_block_is_scanned_again() {
        let src = "#[cfg(test)]\nmod tests {\n  fn f() { x.unwrap(); }\n}\n\
                   let after = y.unwrap();\n";
        let v = scan_file("x.rs", src, PROD);
        assert_eq!(rules(&v), ["no-unwrap"]);
        assert_eq!(v[0].line, 5);
    }

    #[test]
    fn admission_rules_fire_only_on_admission_files() {
        let src = "let g = state.lock();\nlet m = HashMap::new();\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
        let v = scan_file("x.rs", src, ADMISSION);
        assert_eq!(rules(&v), ["admission-lock", "raw-keyed-state"]);
    }

    #[test]
    fn admission_allow_escape_works_and_needs_the_right_rule() {
        let src = "let g = state.lock(); // lint:allow(admission-lock) startup only\n";
        assert!(scan_file("x.rs", src, ADMISSION).is_empty());
        let src = "let g = state.lock(); // lint:allow(no-unwrap) wrong rule\n";
        assert_eq!(
            rules(&scan_file("x.rs", src, ADMISSION)),
            ["admission-lock"]
        );
    }

    #[test]
    fn allow_escape_in_comment_block_above_works() {
        let src = "// lint:allow(admission-lock) read-mostly global, not per-client\n\
                   let g = state.lock();\n";
        assert!(scan_file("x.rs", src, ADMISSION).is_empty());
        // ...and does not leak past the line it precedes.
        let src = "// lint:allow(admission-lock) first only\n\
                   let g = state.lock();\n\
                   let h = other.lock();\n";
        let v = scan_file("x.rs", src, ADMISSION);
        assert_eq!(rules(&v), ["admission-lock"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn io_style_read_write_with_args_do_not_fire() {
        let src = "file.write(buf); reader.read(&mut buf);\n";
        assert!(scan_file("x.rs", src, ADMISSION).is_empty());
    }

    #[test]
    fn trace_blocking_fires_only_on_trace_hot_files() {
        let src = "let g = self.slots.lock();\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
        let v = scan_file("x.rs", src, TRACE_HOT);
        assert_eq!(rules(&v), ["trace-blocking"]);
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn trace_blocking_permits_try_lock_and_allow_escape() {
        // The emission idiom: try_lock-or-drop never blocks.
        let src = "match self.slots.try_lock() { Some(mut g) => g.push(s), None => drop(s) }\n";
        assert!(scan_file("x.rs", src, TRACE_HOT).is_empty());
        // Snapshot/dump paths opt out explicitly.
        let src = "// lint:allow(trace-blocking) dump path, not a span emission site\n\
                   let all = self.slots.lock().clone();\n";
        assert!(scan_file("x.rs", src, TRACE_HOT).is_empty());
        // A blocking RwLock read fires too.
        let src = "let view = self.index.read();\n";
        assert_eq!(
            rules(&scan_file("x.rs", src, TRACE_HOT)),
            ["trace-blocking"]
        );
    }

    #[test]
    fn reactor_blocking_fires_only_on_reactor_files() {
        let src = "std::thread::sleep(backoff);\n\
                   let (stream, ip) = self.rx.recv();\n\
                   handle.join();\n\
                   stream.read_exact(&mut header);\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
        let v = scan_file("x.rs", src, REACTOR_HOT);
        assert_eq!(
            rules(&v),
            [
                "reactor-blocking",
                "reactor-blocking",
                "reactor-blocking",
                "reactor-blocking"
            ]
        );
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn reactor_blocking_permits_nonblocking_idioms_and_allow_escape() {
        // The event-loop idiom: single-shot nonblocking I/O and
        // try_recv never park the thread.
        let src = "while let Ok(conn) = self.rx.try_recv() { accept(conn); }\n\
                   let n = stream.read(&mut buf)?;\n\
                   let n = stream.write(chunk)?;\n\
                   self.poller.wait(&mut events, timeout)?;\n";
        assert!(scan_file("x.rs", src, REACTOR_HOT).is_empty());
        // Shutdown/teardown paths opt out explicitly.
        let src = "// lint:allow(reactor-blocking) shutdown join, loop already exited\n\
                   handle.join();\n";
        assert!(scan_file("x.rs", src, REACTOR_HOT).is_empty());
    }

    #[test]
    fn unsafe_site_needs_a_safety_comment_and_a_feature_guard() {
        let guarded = "if is_x86_feature_detected!(\"sha\") {\n\
                       // SAFETY: the feature was detected just above.\n\
                       unsafe { kernel(state) };\n}\n";
        assert!(scan_file("x.rs", guarded, PROD).is_empty());
        // No guard, no comment, a comment that is not on the line above,
        // and a guard too far up each fire.
        for src in [
            "unsafe { kernel(state) };\n",
            "// SAFETY: trust me.\nunsafe { kernel(state) };\n",
            "if is_x86_feature_detected!(\"sha\") {\nunsafe { kernel(state) };\n}\n",
            "// SAFETY: stale.\nif is_x86_feature_detected!(\"sha\") {\nunsafe { kernel(state) };\n}\n",
            "if is_x86_feature_detected!(\"sha\") {\nlet a = 1;\nlet b = 2;\n\
             // SAFETY: the guard is four lines up.\nunsafe { kernel(state) };\n}\n",
        ] {
            assert_eq!(rules(&scan_file("x.rs", src, PROD)), ["unsafe-site"], "{src}");
        }
        // The lint attributes, comments and strings are not the keyword.
        let src = "#![deny(unsafe_code)]\n#[allow(unsafe_code)]\n// unsafe\nlet s = \"unsafe\";\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
    }

    /// The workspace's one real site: `aipow-crypto`'s call into the
    /// SHA-NI kernel passes the rule, and is the only `unsafe` in the file.
    #[test]
    fn unsafe_site_accepts_the_sha_ni_call_in_aipow_crypto() {
        let src = include_str!("../../crypto/src/sha256.rs");
        let rel = "crates/crypto/src/sha256.rs";
        assert!(scan_file(rel, src, PROD).is_empty());
        let mut state = LexState::Code;
        let sites = src
            .lines()
            .filter(|line| has_word(&split_line(line, &mut state).code, "unsafe"))
            .count();
        assert_eq!(sites, 1);
    }

    #[test]
    fn forbid_unsafe_checks_source_then_manifest() {
        assert!(check_forbid_unsafe("a.rs", "#![forbid(unsafe_code)]\n", None).is_none());
        assert!(
            check_forbid_unsafe("a.rs", "", Some("[lints.rust]\nunsafe_code = \"forbid\"\n"))
                .is_none()
        );
        let v = check_forbid_unsafe("a.rs", "fn main() {}\n", Some("[package]"));
        assert_eq!(v.map(|v| v.rule), Some("forbid-unsafe"));
    }

    #[test]
    fn baseline_roundtrip_suppresses_and_reports_stale() {
        let violations = scan_file("x.rs", "let a = x.unwrap();\n", PROD);
        let baseline = Baseline::parse(&Baseline::render(&violations));
        let (fresh, suppressed, stale) = baseline.apply(violations.clone());
        assert!(fresh.is_empty());
        assert_eq!((suppressed, stale), (1, 0));
        // Fixing the violation leaves the baseline entry stale.
        let (fresh, suppressed, stale) = baseline.apply(Vec::new());
        assert!(fresh.is_empty());
        assert_eq!((suppressed, stale), (0, 1));
        // A second identical violation is NOT covered by one entry.
        let mut twice = violations.clone();
        twice.extend(violations);
        let (fresh, suppressed, _) = baseline.apply(twice);
        assert_eq!((fresh.len(), suppressed), (1, 1));
    }

    #[test]
    fn baseline_is_line_drift_tolerant() {
        let before = scan_file("x.rs", "let a = x.unwrap();\n", PROD);
        let after = scan_file("x.rs", "\n\n\nlet a = x.unwrap();\n", PROD);
        assert_eq!(after[0].line, 4);
        let baseline = Baseline::parse(&Baseline::render(&before));
        let (fresh, _, stale) = baseline.apply(after);
        assert!(fresh.is_empty());
        assert_eq!(stale, 0);
    }

    #[test]
    fn raw_strings_are_treated_as_strings() {
        let src = "let re = r\".unwrap()\"; let re2 = r#\"panic!(\"x\")\"#;\n";
        assert!(scan_file("x.rs", src, PROD).is_empty());
    }

    #[test]
    fn multi_line_block_comments_do_not_hide_later_code() {
        let src = "/* comment\nstill comment */ let a = x.unwrap();\n";
        let v = scan_file("x.rs", src, PROD);
        assert_eq!(rules(&v), ["no-unwrap"]);
        assert_eq!(v[0].line, 2);
    }
}
