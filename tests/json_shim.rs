//! The vendored JSON shim (`vendor/serde`, `vendor/serde_json`):
//!
//! * no input makes `from_str` panic — arbitrary text, and bit flips,
//!   truncations and splices of real payloads, give `Ok` or `Err`;
//! * every object a recorded Tiny bundle stores re-encodes to exactly
//!   the bytes it was decoded from — the bundle's content addresses are
//!   the hashes of those bytes — and generated visits with quotes,
//!   backslashes, control characters and non-ASCII in their strings
//!   re-serialize to exactly the bytes they were parsed from;
//! * every shape the derive supports prints as pinned below, compact
//!   and pretty (the strings were taken from the value-tree
//!   implementation this one replaced).

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use wmtree::browser::{FrameRecord, RequestRecord, StackEntry, TriggerSource, VisitResult};
use wmtree::bundle::{object, Manifest, Record};
use wmtree::net::cookie::{Cookie, SameSite};
use wmtree::net::{ResourceType, Status};
use wmtree::url::Url;
use wmtree::{Experiment, ExperimentConfig, Scale};
use wmtree_server::JobSpec;

// ------------------------------------------------------------ fixtures

/// A Tiny crawl recorded once per test binary.
fn tiny_bundle() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join("wmtree-json-shim-tiny");
        let _ = std::fs::remove_dir_all(&dir);
        Experiment::new(ExperimentConfig::at_scale(Scale::Tiny))
            .run_to_bundle(&dir, None)
            .expect("record a Tiny bundle");
        dir
    })
}

/// The record payloads (checksum column cut) of every segment of the
/// log `prefix` in `dir`.
fn payloads(dir: &Path, prefix: &str) -> Vec<String> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("list bundle")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(prefix) && n.ends_with(".seg"))
        })
        .collect();
    segments.sort();
    segments
        .iter()
        .flat_map(|seg| {
            std::fs::read_to_string(seg)
                .expect("read segment")
                .lines()
                .map(|line| line[17..].to_string())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// One real payload of each kind `from_str` meets on disk or on the
/// wire: an object entry, a visit record, a manifest, a job spec.
fn samples() -> &'static [String; 4] {
    static SAMPLES: OnceLock<[String; 4]> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let dir = tiny_bundle();
        [
            payloads(dir, "objects").swap_remove(0),
            payloads(dir, "visits").swap_remove(0),
            std::fs::read_to_string(dir.join("MANIFEST.json")).expect("manifest"),
            r#"{"scale": "tiny", "seed": 7, "workers": 2}"#.to_string(),
        ]
    })
}

/// Parse `text` as every type it could be; only a panic fails.
fn parse_all(text: &str) {
    let _ = serde_json::from_str::<serde_json::Value>(text);
    let _ = object::decode(text);
    let _ = object::decode_header(text);
    let _ = serde_json::from_str::<Record>(text);
    let _ = serde_json::from_str::<Manifest>(text);
    let _ = serde_json::from_str::<JobSpec>(text);
    let _ = serde_json::from_str::<VisitResult>(text);
}

/// Characters that stress the string codec.
fn nasty_string() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            '"', '\\', '/', '\u{0}', '\u{8}', '\u{c}', '\n', '\r', '\t', '\u{1f}', '\u{7f}', 'a',
            'Z', '0', ' ', 'é', '\u{2028}', '😀', '{', '[',
        ]),
        0..12,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

/// A visit whose every free-text field holds `s`.
fn visit_with(s: &str, n: u64) -> VisitResult {
    let url = Url::parse("https://www.a.com/").expect("url parses");
    let mut visit = VisitResult::failed(url.clone());
    visit.success = n.is_multiple_of(2);
    visit.duration_ms = n;
    visit.requests.push(RequestRecord {
        id: n,
        url: url.clone(),
        resource_type: ResourceType::Script,
        frame_id: 0,
        call_stack: vec![StackEntry {
            url: s.to_string(),
            function: s.to_string(),
        }],
        redirect_from: n.is_multiple_of(3).then(|| url.clone()),
        trigger: TriggerSource::Script(s.to_string()),
        started_ms: n,
        completed_ms: n + 1,
        status: Status(200),
        set_cookies: vec![s.to_string(), String::new()],
        is_frame_navigation: false,
    });
    visit.frames.push(FrameRecord {
        frame_id: 0,
        parent_frame_id: None,
        document_url: s.to_string(),
    });
    visit.cookies.push(Cookie {
        name: s.to_string(),
        value: s.to_string(),
        domain: "a.com".into(),
        host_only: true,
        path: "/".into(),
        secure: false,
        http_only: true,
        same_site: Some(SameSite::Lax),
        max_age: Some(-(n as i64)),
        expires: Some(s.to_string()),
    });
    visit
}

// ---------------------------------------------------------- properties

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary text, raw or drawn from JSON's own punctuation.
    #[test]
    fn arbitrary_text_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        jsonish in prop::collection::vec(
            prop::sample::select(b"[]{}:,\"\\ 0123456789-+.eEnultrfasxu".to_vec()),
            0..96,
        ),
    ) {
        parse_all(&String::from_utf8_lossy(&bytes));
        parse_all(&String::from_utf8_lossy(&jsonish));
    }

    /// A flipped bit, a truncation, or a splice of one real payload into
    /// another.
    #[test]
    fn mutated_payloads_never_panic(
        which in 0usize..4,
        other in 0usize..4,
        kind in 0u8..3,
        a in any::<usize>(),
        b in any::<usize>(),
        bit in 0u8..8,
    ) {
        let samples = samples();
        let mut bytes = samples[which].as_bytes().to_vec();
        let len = bytes.len();
        let at = a % (len + 1);
        match kind {
            0 if len > 0 => bytes[at % len] ^= 1 << bit,
            1 => bytes.truncate(at),
            _ => {
                let donor = samples[other].as_bytes();
                let from = b % (donor.len() + 1);
                let to = (from + b % 64).min(donor.len());
                bytes.splice(at..at, donor[from..to].iter().copied());
            }
        }
        parse_all(&String::from_utf8_lossy(&bytes));
    }

    /// Generated visits round-trip byte for byte.
    #[test]
    fn nasty_visits_roundtrip_exactly(s in nasty_string(), n in any::<u64>()) {
        let text = serde_json::to_string(&visit_with(&s, n)).expect("serialize");
        let back: VisitResult = serde_json::from_str(&text).expect("parse back");
        prop_assert_eq!(serde_json::to_string(&back).expect("reserialize"), text);
        prop_assert_eq!(back, visit_with(&s, n));
    }
}

#[test]
fn every_stored_object_roundtrips_exactly() {
    let dir = tiny_bundle();
    let objects = payloads(dir, "objects");
    assert!(objects.len() > 100, "{} objects", objects.len());
    for payload in &objects {
        let visit = object::decode(payload).expect("object decodes");
        assert_eq!(&object::encode(&visit).expect("re-encode"), payload);
    }
    for record in payloads(dir, "visits") {
        let back: Record = serde_json::from_str(&record).expect("record parses");
        assert_eq!(serde_json::to_string(&back).unwrap(), record);
    }
}

#[test]
fn nesting_is_capped_with_a_located_error() {
    let depth = serde::MAX_DEPTH;
    let ok = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    assert!(serde_json::from_str::<serde_json::Value>(&ok).is_ok());
    let deep = format!("{}{}", "[".repeat(depth + 1), "]".repeat(depth + 1));
    let err = serde_json::from_str::<serde_json::Value>(&deep).unwrap_err();
    assert_eq!(
        err.to_string(),
        format!("nesting deeper than {depth} levels at byte {depth}")
    );
    for hostile in ["[".repeat(100_000), "{\"a\":".repeat(50_000)] {
        assert!(serde_json::from_str::<serde_json::Value>(&hostile).is_err());
        assert!(serde_json::from_str::<JobSpec>(&hostile).is_err());
        assert!(serde_json::from_str::<VisitResult>(&hostile).is_err());
    }
}

#[test]
fn errors_name_the_field_and_the_byte_offset() {
    let text = r#"{"scale": "tiny", "seed": "7"}"#;
    let err = serde_json::from_str::<JobSpec>(text).unwrap_err();
    let offset = text.find(r#""7""#).unwrap();
    assert_eq!(
        err.to_string(),
        format!("field `seed`: expected integer at byte {offset}")
    );
    let err = serde_json::from_str::<JobSpec>(r#"{"seed": 7}"#).unwrap_err();
    assert_eq!(err.to_string(), "missing field `scale` at byte 11");
    let err = serde_json::from_str::<u32>("[1]").unwrap_err();
    assert_eq!(err.to_string(), "expected integer at byte 0");
    let err = serde_json::from_str::<u8>(" 300").unwrap_err();
    assert_eq!(err.to_string(), "integer 300 out of range for u8 at byte 1");
}

// ------------------------------------------------------------- goldens

/// Every field and variant shape the vendored derive supports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(u32),
    Tuple(i64, String),
    Struct {
        x: f64,
        #[serde(rename = "why")]
        y: Option<bool>,
        #[serde(skip)]
        hidden: u8,
    },
}

/// A unit-only enum: its values can key a JSON object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
enum Kind {
    Alpha,
    Beta,
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
struct Wrapper(String);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
struct Pair(u8, i8);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Marker;

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Everything {
    shapes: Vec<Shape>,
    #[serde(rename = "renamed")]
    original: u64,
    #[serde(skip)]
    skipped: u32,
    absent: Option<String>,
    present: Option<Wrapper>,
    empty_vec: Vec<u8>,
    empty_map: BTreeMap<String, u8>,
    by_int: BTreeMap<i32, Pair>,
    by_kind: BTreeMap<Kind, Vec<Kind>>,
    by_struct: BTreeMap<Pair, Wrapper>,
    floats: Vec<f64>,
    marker: Marker,
    text: String,
}

fn everything() -> Everything {
    Everything {
        shapes: vec![
            Shape::Unit,
            Shape::Newtype(7),
            Shape::Tuple(-3, "t".into()),
            Shape::Struct {
                x: 0.25,
                y: None,
                hidden: 0,
            },
            Shape::Struct {
                x: -1.0,
                y: Some(true),
                hidden: 0,
            },
        ],
        original: u64::MAX,
        skipped: 0,
        absent: None,
        present: Some(Wrapper("w".into())),
        empty_vec: vec![],
        empty_map: BTreeMap::new(),
        by_int: [(-1, Pair(1, -1)), (10, Pair(2, 0))].into(),
        by_kind: [(Kind::Alpha, vec![Kind::Beta]), (Kind::Beta, vec![])].into(),
        by_struct: [(Pair(3, 4), Wrapper("k".into()))].into(),
        floats: vec![2.0, 1.5, 1e20, f64::NAN, -0.0, 1e-7],
        marker: Marker,
        text: "q\"b\\n\n\t\u{1}é😀".into(),
    }
}

const COMPACT: &str = r#"{"shapes":["Unit",{"Newtype":7},{"Tuple":[-3,"t"]},{"Struct":{"x":0.25,"why":null}},{"Struct":{"x":-1.0,"why":true}}],"renamed":18446744073709551615,"absent":null,"present":"w","empty_vec":[],"empty_map":{},"by_int":{"-1":[1,-1],"10":[2,0]},"by_kind":{"Alpha":["Beta"],"Beta":[]},"by_struct":[[[3,4],"k"]],"floats":[2.0,1.5,100000000000000000000,null,-0.0,0.0000001],"marker":null,"text":"q\"b\\n\n\t\u0001é😀"}"#;

const PRETTY: &str = r#"{
  "shapes": [
    "Unit",
    {
      "Newtype": 7
    },
    {
      "Tuple": [
        -3,
        "t"
      ]
    },
    {
      "Struct": {
        "x": 0.25,
        "why": null
      }
    },
    {
      "Struct": {
        "x": -1.0,
        "why": true
      }
    }
  ],
  "renamed": 18446744073709551615,
  "absent": null,
  "present": "w",
  "empty_vec": [],
  "empty_map": {},
  "by_int": {
    "-1": [
      1,
      -1
    ],
    "10": [
      2,
      0
    ]
  },
  "by_kind": {
    "Alpha": [
      "Beta"
    ],
    "Beta": []
  },
  "by_struct": [
    [
      [
        3,
        4
      ],
      "k"
    ]
  ],
  "floats": [
    2.0,
    1.5,
    100000000000000000000,
    null,
    -0.0,
    0.0000001
  ],
  "marker": null,
  "text": "q\"b\\n\n\t\u0001é😀"
}"#;

#[test]
fn derive_shapes_print_as_pinned() {
    let value = everything();
    assert_eq!(serde_json::to_string(&value).unwrap(), COMPACT);
    assert_eq!(serde_json::to_string_pretty(&value).unwrap(), PRETTY);
    // Both read back, except the NaN: it prints as `null`, which an
    // `f64` refuses. `skip` fields come back as their default.
    let mut finite = value.clone();
    finite.floats.retain(|f| !f.is_nan());
    for (golden, text) in [
        (COMPACT, COMPACT.replace("00000,null,", "00000,")),
        (PRETTY, PRETTY.replace("00000,\n    null,", "00000,")),
    ] {
        assert_ne!(text, golden, "the NaN was cut");
        let back: Everything = serde_json::from_str(&text).expect("golden parses");
        assert_eq!(back, finite);
    }
    // An absent `Option` field reads as `None`.
    let shape: Shape = serde_json::from_str(r#"{"Struct":{"x":1.0}}"#).unwrap();
    assert_eq!(
        shape,
        Shape::Struct {
            x: 1.0,
            y: None,
            hidden: 0
        }
    );
}

#[test]
fn scalar_and_nesting_goldens() {
    let nested: BTreeMap<String, BTreeMap<String, u8>> =
        [("a".to_string(), BTreeMap::new())].into();
    assert_eq!(
        serde_json::to_string("\u{7f}\u{8}\u{c}\r/").unwrap(),
        "\"\u{7f}\\b\\f\\r/\""
    );
    assert_eq!(
        serde_json::to_string_pretty(&vec![Vec::<u8>::new()]).unwrap(),
        "[\n  []\n]"
    );
    assert_eq!(
        serde_json::to_string_pretty(&nested).unwrap(),
        "{\n  \"a\": {}\n}"
    );
    assert_eq!(
        serde_json::to_string(&(1u8, "x", 0.1f32)).unwrap(),
        "[1,\"x\",0.10000000149011612]"
    );
    assert_eq!(
        serde_json::to_string_pretty(&Shape::Tuple(1, "p".into())).unwrap(),
        "{\n  \"Tuple\": [\n    1,\n    \"p\"\n  ]\n}"
    );
    assert_eq!(
        serde_json::to_string_pretty(&Pair(1, 2)).unwrap(),
        "[\n  1,\n  2\n]"
    );
    assert_eq!(
        serde_json::to_string(&[i64::MIN, -1, 0]).unwrap(),
        "[-9223372036854775808,-1,0]"
    );
}
