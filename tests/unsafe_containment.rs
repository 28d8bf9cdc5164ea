//! The workspace holds exactly one `unsafe` block in program code: the
//! cache prefetch in `streamnet::fleet`'s `prefetch_read`, which exists
//! because the safe `std::hint::prefetch_read` is still unstable. This test
//! scans every Rust source of the repository — the crates' `src`, `tests`
//! and `benches`, the facade's `src`, the root `tests` and the examples —
//! and fails on a second `unsafe` anywhere (block, fn, impl or trait), on
//! the block leaving its helper, and on a library crate root that stops
//! forbidding `unsafe` code (streamnet, which holds the block, denies it
//! instead: `forbid` cannot be relaxed for one item). The only other
//! `unsafe` are the counting allocators of two zero-allocation tests, each
//! pinned site by site.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file under `dir`, recursively, in a stable order.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.unwrap().path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The scanned sources: `crates/*/src`, `crates/*/tests`,
/// `crates/*/benches`, `src`, `tests` and `examples`.
fn scanned_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut crates: Vec<PathBuf> =
        fs::read_dir(root.join("crates")).unwrap().map(|e| e.unwrap().path()).collect();
    crates.sort();
    for krate in crates {
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("tests"), &mut files);
        rust_files(&krate.join("benches"), &mut files);
    }
    for dir in ["src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    files
}

/// The identifiers of `src` with their byte offsets, skipping comments
/// (nested block comments included), string literals (raw and byte ones
/// included) and char literals, so a word inside them is never a token.
fn identifiers(src: &str) -> Vec<(usize, &str)> {
    let b = src.as_bytes();
    let is_ident = |c: u8| c == b'_' || c.is_ascii_alphanumeric();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let mut depth = 0;
                while i < b.len() {
                    if b[i..].starts_with(b"/*") {
                        depth += 1;
                        i += 2;
                    } else if b[i..].starts_with(b"*/") {
                        depth -= 1;
                        i += 2;
                        if depth == 0 {
                            break;
                        }
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                i += 1;
                while i < b.len() && b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
            }
            b'\'' => {
                // A char literal ('x', '\n', '\u{..}') or a lifetime ('a).
                if b.get(i + 1) == Some(&b'\\') {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                } else {
                    let width = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                    i += if b.get(i + 1 + width) == Some(&b'\'') { 2 + width } else { 1 };
                }
            }
            c if is_ident(c) => {
                let start = i;
                while i < b.len() && is_ident(b[i]) {
                    i += 1;
                }
                let word = &src[start..i];
                // A raw string: r"…", r#"…"#, br"…", br#"…"#.
                let hashes = b[i..].iter().take_while(|&&c| c == b'#').count();
                if (word == "r" || word == "br") && b.get(i + hashes) == Some(&b'"') {
                    let close: Vec<u8> =
                        std::iter::once(b'"').chain(std::iter::repeat_n(b'#', hashes)).collect();
                    i += hashes + 1;
                    while i < b.len() && !b[i..].starts_with(&close) {
                        i += 1;
                    }
                    i += close.len();
                } else if word == "b" && b.get(i) == Some(&b'\'') {
                    // A byte literal b'x' / b'\n': skip it as a char literal.
                    i += if b.get(i + 1) == Some(&b'\\') { 4 } else { 3 };
                    while i < b.len() && b[i - 1] != b'\'' {
                        i += 1;
                    }
                } else {
                    out.push((start, word));
                }
            }
            _ => i += 1,
        }
    }
    out
}

/// Each `unsafe` token of `src`: a block as `unsafe block in fn NAME`,
/// naming the nearest `fn` before it, and anything else as `unsafe` and the
/// two identifiers after it (`unsafe fn alloc`, `unsafe impl GlobalAlloc`).
fn unsafe_sites(src: &str) -> Vec<String> {
    let words = identifiers(src);
    let mut sites = Vec::new();
    for (k, &(at, word)) in words.iter().enumerate() {
        if word != "unsafe" {
            continue;
        }
        let site = if src[at + word.len()..].trim_start().starts_with('{') {
            let enclosing =
                words[..k].windows(2).rev().find(|w| w[0].1 == "fn").map_or("", |w| w[1].1);
            format!("unsafe block in fn {enclosing}")
        } else {
            let item = |j: usize| words.get(k + j).map_or("", |w| w.1);
            format!("unsafe {} {}", item(1), item(2))
        };
        sites.push(site);
    }
    sites
}

/// The counting allocator of a zero-allocation test: an `unsafe impl
/// GlobalAlloc` whose three methods forward to `System`. Test binaries
/// install it; no library links it.
const ALLOCATOR_SHIM: [&str; 7] = [
    "unsafe impl GlobalAlloc",
    "unsafe fn alloc",
    "unsafe block in fn alloc",
    "unsafe fn dealloc",
    "unsafe block in fn dealloc",
    "unsafe fn realloc",
    "unsafe block in fn realloc",
];

#[test]
fn the_prefetch_helper_holds_the_only_unsafe_block() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = scanned_files(root);
    assert!(files.len() > 100, "the scan found only {} files", files.len());
    let mut found = BTreeMap::new();
    for file in &files {
        let sites = unsafe_sites(&fs::read_to_string(file).unwrap());
        if !sites.is_empty() {
            let rel = file.strip_prefix(root).unwrap().to_string_lossy().replace('\\', "/");
            found.insert(rel, sites);
        }
    }
    let shim = || ALLOCATOR_SHIM.map(String::from).to_vec();
    let want = BTreeMap::from([
        ("crates/server/tests/scoped_install_alloc.rs".to_string(), shim()),
        (
            "crates/streamnet/src/fleet.rs".to_string(),
            vec!["unsafe block in fn prefetch_read".to_string()],
        ),
        ("crates/streamnet/tests/chaos_round_alloc.rs".to_string(), shim()),
    ]);
    assert_eq!(
        found, want,
        "exactly one unsafe block, in streamnet's prefetch helper, beside the two test allocators"
    );
}

#[test]
fn every_library_root_but_streamnet_forbids_unsafe_code() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut roots: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path().join("src/lib.rs"))
        .filter(|p| p.is_file())
        .collect();
    roots.push(root.join("src/lib.rs"));
    assert!(roots.len() >= 9, "found only {} library roots", roots.len());
    for lib in roots {
        let src = fs::read_to_string(&lib).unwrap();
        let lines: Vec<&str> = src.lines().map(str::trim).collect();
        let has = |attr: &str| lines.contains(&attr);
        let name = lib.display();
        if lib.ends_with("streamnet/src/lib.rs") {
            assert!(has("#![deny(unsafe_code)]"), "{name}: streamnet must deny unsafe code");
            assert!(
                has("#![deny(clippy::undocumented_unsafe_blocks)]"),
                "{name}: the unsafe block must keep its SAFETY comment"
            );
            assert!(!has("#![forbid(unsafe_code)]"), "{name}: forbid would reject the helper");
        } else {
            assert!(has("#![forbid(unsafe_code)]"), "{name}: must forbid unsafe code");
        }
    }
}

#[test]
fn the_scanner_skips_comments_strings_and_chars() {
    let src = r####"
        // unsafe in a line comment
        /* unsafe /* nested unsafe */ still a comment: unsafe */
        fn a() { let _ = "unsafe \" unsafe"; let _ = 'u'; let _ = '\''; }
        fn b<'a>(x: &'a str) -> &'a str { let _ = r#"unsafe "quoted" unsafe"#; x }
        fn c() { let _ = b'"'; let _ = br"unsafe"; unsafe { } }
        unsafe fn d() {}
    "####;
    assert_eq!(unsafe_sites(src), ["unsafe block in fn c", "unsafe fn d"]);
}
