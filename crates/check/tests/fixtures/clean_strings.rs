//! Lexer regression fixture: every banned token below appears only
//! inside a string literal, a doc comment, or a (nested) block comment.
//! The old line scanner flagged several of these; the token-level
//! analyzer must report ZERO findings for this file.
//!
//! Banned-token bait in module docs: Instant::now(), x.unwrap(),
//! thread::sleep(d), HashMap, SystemTime.

/// Doc-comment bait: call `.unwrap()` and `Instant::now()` freely here.
pub fn doc_bait() -> &'static str {
    "x.unwrap(); std::time::Instant::now(); thread::sleep(d);"
}

pub fn raw_string_bait() -> &'static str {
    r#"
    let t = std::time::Instant::now();
    let m: HashMap<u32, u32> = HashMap::new();
    m.get(&0).unwrap();
    std::thread::sleep(Duration::from_millis(5));
    guard.lock(); other.join(); tx.send(1); rx.recv();
    let end_ns = start_ms + 5;
    let timeout_ms = 500;
    "#
}

pub fn deeper_raw_string_bait() -> &'static str {
    // Two hashes, with a `"#` inside that must not terminate the string.
    r##"SystemTime::now().expect("fail") "# still inside "##
}

/* Block-comment bait: x.unwrap(); Instant::now();
   /* nested: HashMap::new(); thread::sleep(d);
      /* doubly nested: y.expect("boom"); rand::random(); */
      still in level two: from_entropy();
   */
   still in level one: getrandom(); RandomState::new();
*/

pub fn char_and_byte_bait() -> (char, u8, &'static [u8]) {
    // A `"` char literal must not open a string that swallows the rest
    // of the file; same for byte strings.
    ('"', b'\'', b"Instant::now() .unwrap()")
}

pub fn escapes_bait() -> &'static str {
    "escaped quote \" then .unwrap() and \\" // trailing comment: .expect(
}
