//! Randomized properties of the SQL layer's codecs, lexer and parser.
//! Each is a loop over fixed seeds, from 0; every assertion names its
//! seed, so a failure reproduces by running that one seed.

use std::collections::BTreeMap;

use crdb_sql::rowcodec;
use crdb_sql::schema::{Column, IndexDescriptor, TableDescriptor};
use crdb_sql::session::{Session, SessionSnapshot};
use crdb_sql::value::{ColumnType, Datum};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 512;

/// A string of up to `max_len` characters drawn from `alphabet`.
fn string_from(rng: &mut SmallRng, alphabet: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char).collect()
}

/// Up to `max_len` printable ASCII characters (`' '..='~'`).
fn printable(rng: &mut SmallRng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len).map(|_| rng.gen_range(b' '..=b'~') as char).collect()
}

fn int(rng: &mut SmallRng) -> i64 {
    const EDGES: [i64; 6] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX];
    if rng.gen_bool(0.25) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen()
    }
}

fn float(rng: &mut SmallRng) -> f64 {
    const EDGES: [f64; 7] =
        [0.0, -0.0, f64::MIN_POSITIVE, f64::MAX, f64::MIN, f64::INFINITY, f64::NEG_INFINITY];
    if rng.gen_bool(0.25) {
        EDGES[rng.gen_range(0..EDGES.len())]
    } else {
        rng.gen_range(-1e12..1e12)
    }
}

fn maybe_null(rng: &mut SmallRng, d: Datum) -> Datum {
    if rng.gen_bool(0.1) {
        Datum::Null
    } else {
        d
    }
}

fn table() -> TableDescriptor {
    TableDescriptor {
        id: 7,
        name: "t".into(),
        columns: vec![
            Column { name: "a".into(), ty: ColumnType::Int, nullable: false },
            Column { name: "b".into(), ty: ColumnType::String, nullable: false },
            Column { name: "c".into(), ty: ColumnType::Float, nullable: true },
            Column { name: "d".into(), ty: ColumnType::Bool, nullable: true },
            Column { name: "e".into(), ty: ColumnType::String, nullable: true },
            Column { name: "f".into(), ty: ColumnType::Int, nullable: true },
        ],
        primary_key: vec![0, 1],
        indexes: vec![],
    }
}

const ALPHANUMERIC: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-";

/// A well-typed row of [`table`].
fn row(rng: &mut SmallRng) -> Vec<Datum> {
    let a = Datum::Int(int(rng));
    let b = Datum::Str(string_from(rng, ALPHANUMERIC, 24));
    let c = Datum::Float(float(rng));
    let d = Datum::Bool(rng.gen());
    let e = Datum::Str(string_from(rng, ALPHANUMERIC, 24));
    let f = Datum::Int(int(rng));
    vec![a, b, maybe_null(rng, c), maybe_null(rng, d), maybe_null(rng, e), maybe_null(rng, f)]
}

/// A row of [`table`] with only its primary key set.
fn pk_row(a: i64, b: &str) -> Vec<Datum> {
    let mut row = vec![Datum::Null; 6];
    (row[0], row[1]) = (Datum::Int(a), Datum::Str(b.into()));
    row
}

/// Same variant, same value. `Datum`'s own `==` is SQL equality, which
/// equates `Int(1)` with `Float(1.0)` — too loose for a codec.
fn same(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Null, Datum::Null) => true,
        (Datum::Int(x), Datum::Int(y)) => x == y,
        (Datum::Float(x), Datum::Float(y)) => x == y,
        (Datum::Str(x), Datum::Str(y)) => x == y,
        (Datum::Bool(x), Datum::Bool(y)) => x == y,
        _ => false,
    }
}

/// Any well-typed row roundtrips exactly through the KV encoding.
#[test]
fn row_roundtrips() {
    let t = table();
    for seed in 0..CASES {
        let row = row(&mut SmallRng::seed_from_u64(seed));
        let key = rowcodec::primary_key(&t, &row);
        let value = rowcodec::encode_row_value(&t, &row);
        let decoded = rowcodec::decode_row(&t, &key, &value)
            .unwrap_or_else(|| panic!("seed {seed}: {row:?} does not decode"));
        assert_eq!(decoded.len(), row.len(), "seed {seed}");
        for (d, r) in decoded.iter().zip(&row) {
            assert!(same(d, r), "seed {seed}: decoded {d:?}, wrote {r:?}");
        }
    }
}

/// Key encoding preserves the order of the primary key tuple, including
/// at the `i64` extremes and between strings that share a prefix.
#[test]
fn pk_encoding_preserves_tuple_order() {
    let t = table();
    let pk = |rng: &mut SmallRng| (int(rng), string_from(rng, b"ab\x00", 6));
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let (p1, mut p2) = (pk(rng), pk(rng));
        if rng.gen_bool(0.5) {
            p2.0 = p1.0; // the string column decides
        }
        let [k1, k2] = [&p1, &p2].map(|(a, b)| rowcodec::primary_key(&t, &pk_row(*a, b)));
        assert_eq!(k1.cmp(&k2), p1.cmp(&p2), "seed {seed}: {p1:?} vs {p2:?}");
    }
}

/// Words the parser knows, so random statements get past its first token.
const VOCABULARY: &[&str] = &[
    "select", "from", "where", "insert", "into", "values", "update", "set", "delete", "create",
    "table", "index", "on", "primary", "key", "int", "string", "float", "bool", "not", "null",
    "and", "or", "order", "by", "asc", "desc", "limit", "group", "count", "sum", "min", "join",
    "as", "begin", "commit", "rollback", "explain", "analyze", "drop", "true", "false", "t", "a",
    "b", "(", ")", ",", "*", "=", "<", ">=", "!=", "+", "-", ".", ";", "--",
];

/// One lexable fragment: a word, a number, a parameter or a quoted
/// string of arbitrary printable content (quotes doubled).
fn fragment(rng: &mut SmallRng) -> String {
    match rng.gen_range(0..10) {
        0..=5 => VOCABULARY[rng.gen_range(0..VOCABULARY.len())].to_string(),
        6 => rng.gen_range(0..1_000_000u64).to_string(),
        // Floats of every magnitude, a fifth of them whole.
        7 => format!(
            "{}.{}",
            rng.gen::<u64>() >> rng.gen_range(0..64),
            [0, 5, 25, 125, 999][rng.gen_range(0..5)]
        ),
        8 => format!("${}", rng.gen_range(1..10u32)),
        _ => format!("'{}'", printable(rng, 12).replace('\'', "''")),
    }
}

/// Statements the parser accepts, one per production, as material to
/// damage.
const CORPUS: &[&str] = &[
    "CREATE TABLE t ( a INT PRIMARY KEY , b STRING NOT NULL , c FLOAT , d BOOL )",
    "CREATE TABLE t ( a INT , b INT , PRIMARY KEY ( a , b ) )",
    "CREATE INDEX idx ON t ( b , c )",
    "DROP TABLE t",
    "INSERT INTO t VALUES ( 1 , 'x' , 2.5 , true ) , ( $1 , $2 , NULL , false )",
    "INSERT INTO t ( a , b ) VALUES ( 1 , 'it''s' )",
    "SELECT * FROM t WHERE a = 1 AND ( b < 'm' OR NOT d ) ORDER BY a DESC LIMIT 10",
    "SELECT a , count ( * ) , sum ( c ) FROM t WHERE c >= 0.5 GROUP BY a",
    "SELECT t.a , u.b FROM t JOIN u ON t.a = u.a WHERE u.b != $1",
    "UPDATE t SET b = 'y' , c = c + 1 WHERE a = 3",
    "DELETE FROM t WHERE a <= 7",
    "EXPLAIN SELECT * FROM t WHERE a = 1",
    "ANALYZE t",
    "BEGIN",
    "COMMIT",
    "ROLLBACK",
];

/// Tenant input, one class per seed residue: raw printable noise (mostly
/// rejected by the lexer), token soup (lexes, rarely parses), and a valid
/// statement with up to three words dropped, doubled, swapped or
/// replaced (fails deep inside the parser, or not at all).
fn tenant_input(seed: u64, rng: &mut SmallRng) -> String {
    match seed % 3 {
        0 => printable(rng, 120),
        1 => {
            let n = rng.gen_range(0..24);
            (0..n).map(|_| fragment(rng)).collect::<Vec<_>>().join(" ")
        }
        _ => {
            let mut words: Vec<String> =
                CORPUS[rng.gen_range(0..CORPUS.len())].split(' ').map(String::from).collect();
            for _ in 0..rng.gen_range(0..=3) {
                let (at, other) = (rng.gen_range(0..words.len()), rng.gen_range(0..words.len()));
                match rng.gen_range(0..4) {
                    0 if words.len() > 1 => drop(words.remove(at)),
                    1 => words.insert(at, words[at].clone()),
                    2 => words.swap(at, other),
                    _ => words[at] = fragment(rng),
                }
            }
            words.join(" ")
        }
    }
}

/// Characters of every UTF-8 width, chosen to sit badly with byte-wise
/// text handling: two to four bytes, a no-break space, a combining mark,
/// a capital whose lower case is longer, a full-width digit, typographic
/// quotes, a byte-order mark and a line separator.
const NON_ASCII: &[char] = &[
    'é', 'ß', 'İ', '\u{a0}', '\u{301}', '日', '本', '１', '’', '“', '\u{feff}', '\u{2028}', '𝄞',
    '🦀',
];

fn non_ascii_word(rng: &mut SmallRng) -> String {
    let len = rng.gen_range(1..=4);
    (0..len).map(|_| NON_ASCII[rng.gen_range(0..NON_ASCII.len())]).collect()
}

/// A corpus statement with multi-byte text put where a tenant can put it:
/// inside a string literal, in place of or glued to an identifier or a
/// number, after a `$`, after a parameter's digits, and bare between
/// words.
fn non_ascii_input(rng: &mut SmallRng) -> String {
    let mut words: Vec<String> =
        CORPUS[rng.gen_range(0..CORPUS.len())].split(' ').map(String::from).collect();
    for _ in 0..rng.gen_range(1..=3) {
        let at = rng.gen_range(0..words.len());
        let w = non_ascii_word(rng);
        match rng.gen_range(0..6) {
            0 => words[at] = format!("'{w}''{}'", non_ascii_word(rng)),
            1 => words[at] = w,
            2 => words[at].push_str(&w),
            3 => words[at] = format!("${w}"),
            4 => words[at] = format!("${}{w}", rng.gen_range(1..10u32)),
            _ => words.insert(at, w),
        }
    }
    words.join(" ")
}

/// Every prefix of `input`, cut at each byte offset; a cut inside a
/// character leaves U+FFFD, as decoding a truncated packet would.
fn byte_prefixes(input: &str) -> impl Iterator<Item = String> + '_ {
    (0..=input.len()).map(|cut| String::from_utf8_lossy(&input.as_bytes()[..cut]).into_owned())
}

fn check_parser_returns(label: &str, input: &str) {
    // A panic aborts the test; name the input first.
    let outcome = std::panic::catch_unwind(|| crdb_sql::parser::parse(input).is_ok());
    assert!(outcome.is_ok(), "{label}: parser panicked on {input:?}");
}

/// The parser returns — a statement or an error — on arbitrary input.
#[test]
fn parser_never_panics() {
    for stmt in CORPUS {
        assert!(crdb_sql::parser::parse(stmt).is_ok(), "corpus statement rejected: {stmt}");
    }
    for seed in 0..4 * CASES {
        let input = tenant_input(seed, &mut SmallRng::seed_from_u64(seed));
        check_parser_returns(&format!("seed {seed}"), &input);
    }
    for seed in 0..CASES {
        let input = non_ascii_input(&mut SmallRng::seed_from_u64(seed));
        for prefix in byte_prefixes(&input) {
            check_parser_returns(&format!("non-ASCII seed {seed}"), &prefix);
        }
    }
}

fn check_lexer_total(label: &str, input: &str) {
    let Ok(tokens) = crdb_sql::lexer::tokenize(input) else { return };
    let rendered = tokens.iter().map(|t| t.to_string()).collect::<Vec<_>>().join(" ");
    let relexed = crdb_sql::lexer::tokenize(&rendered)
        .unwrap_or_else(|e| panic!("{label}: {input:?} rendered as {rendered:?}: {e}"));
    assert_eq!(relexed, tokens, "{label}: {input:?} rendered as {rendered:?}");
}

/// The lexer never panics, and what it accepts renders to text that
/// lexes again to the same tokens.
#[test]
fn lexer_total() {
    // Regression inputs: a literal holding a quote must render it
    // doubled, and a whole float (here too large for an int) must keep
    // its point.
    check_lexer_total("fixed case", "'@|u3)wY''#o'");
    check_lexer_total("fixed case", "100000000000000000000.0");
    for seed in 0..4 * CASES {
        let input = tenant_input(seed, &mut SmallRng::seed_from_u64(seed));
        check_lexer_total(&format!("seed {seed}"), &input);
    }
    // Multi-byte text: a literal that lost or re-encoded a character
    // would not render back to the same tokens.
    for seed in 0..CASES {
        let input = non_ascii_input(&mut SmallRng::seed_from_u64(seed));
        for prefix in byte_prefixes(&input) {
            check_lexer_total(&format!("non-ASCII seed {seed}"), &prefix);
        }
    }
}

/// Index entry keys decode back to the indexed values and the primary
/// key they were built from.
#[test]
fn index_entries_roundtrip() {
    let mut t = table();
    t.indexes.push(IndexDescriptor { id: 2, name: "idx".into(), columns: vec![2, 3] });
    let prefix = rowcodec::index_prefix(t.id, 2);
    for seed in 0..CASES {
        let row = row(&mut SmallRng::seed_from_u64(seed));
        let key = rowcodec::index_entry_key(&t, 2, &[2, 3], &row);
        let pk = rowcodec::decode_index_entry(&t, 2, 2, &key)
            .unwrap_or_else(|| panic!("seed {seed}: {row:?} does not decode"));
        assert!(same(&pk[0], &row[0]) && same(&pk[1], &row[1]), "seed {seed}: {pk:?} from {row:?}");
        let mut rest = &key[prefix.len()..];
        for col in [2, 3] {
            let (d, r) = rowcodec::decode_key_datum(rest)
                .unwrap_or_else(|| panic!("seed {seed}: column {col} of {row:?} does not decode"));
            assert!(same(&d, &row[col]), "seed {seed}: column {col} decoded {d:?} from {row:?}");
            rest = r;
        }
    }
}

/// Session snapshots roundtrip through the wire format for arbitrary
/// settings and prepared statements, and only under the right secret.
#[test]
fn session_snapshot_roundtrips() {
    let map =
        |rng: &mut SmallRng, max_entries: usize, max_value: usize| -> BTreeMap<String, String> {
            (0..rng.gen_range(0..=max_entries))
                .map(|_| {
                    let key = string_from(rng, b"abcdefghijklmnopqrstuvwxyz_", 10);
                    (key, printable(rng, max_value))
                })
                .collect()
        };
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let mut s = Session::new(1, string_from(rng, b"abcdefghijklmnopqrstuvwxyz", 12));
        s.settings = map(rng, 5, 20);
        s.prepared = map(rng, 3, 40);
        let (secret, at): (u64, u64) = (rng.gen(), rng.gen());
        let snap = SessionSnapshot::capture(&s, 9, at, secret).expect("idle");
        let decoded = SessionSnapshot::decode(&snap.encode())
            .unwrap_or_else(|| panic!("seed {seed}: {snap:?} does not decode"));
        assert_eq!(decoded, snap, "seed {seed}");
        let restored = decoded.restore(2, 9, secret).expect("verifies");
        assert_eq!(restored.settings, s.settings, "seed {seed}");
        assert_eq!(restored.prepared, s.prepared, "seed {seed}");
        assert!(snap.restore(3, 9, secret ^ 1).is_err(), "seed {seed}: wrong secret accepted");
        assert!(snap.restore(3, 8, secret).is_err(), "seed {seed}: wrong tenant accepted");
    }
}

/// Spans built from prefixes contain exactly the rows sharing the prefix.
#[test]
fn prefix_spans_are_tight() {
    let t = table();
    let start = rowcodec::key_with_prefix(&t, 1, &[Datum::Int(5)]);
    let end = rowcodec::prefix_span_end(&start);
    for (a, b, inside) in [(5i64, "", true), (5, "zzz", true), (4, "zzz", false), (6, "", false)] {
        let key = rowcodec::primary_key(&t, &pk_row(a, b));
        let contained = key >= start && key < end;
        assert_eq!(contained, inside, "a={a} b={b:?}");
    }
}
