//! The workspace's one JSON writer. Every JSON file `regen` and `clfp`
//! write — the suite records, the `BENCH_*.json` files, `clfp lint
//! --json`, `clfp cache list --json` and the Chrome trace exports — is
//! built as one [`Value`] and rendered by [`render`], the only code that
//! places braces, commas, escapes, indentation and newlines. Its layout
//! rule is fixed:
//!
//! * an array of scalars renders on one line;
//! * an array that holds a container puts one element per line;
//! * an object renders on one line when every member does, otherwise one
//!   member per line, two spaces deeper per level.
//!
//! So every record (a workload, a point, a diagnostic, a trace event)
//! keeps a line of its own, and a flat object such as the run manifest
//! renders on one line.

/// A JSON value. Object members keep their insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// An unsigned integer.
    U64(u64),
    /// A float in its shortest round-trip form; `null` when not finite.
    F64(f64),
    /// A float with a fixed number of decimals, as `format!("{:.N}")`
    /// writes it; `null` when not finite.
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object: members in insertion order.
    Object(Vec<(&'static str, Value)>),
}

impl Value {
    /// An object with no members, to be filled with [`Value::with`].
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// This object with `key: value` appended.
    ///
    /// # Panics
    ///
    /// When `self` is not an object.
    #[must_use]
    pub fn with(mut self, key: &'static str, value: impl Into<Value>) -> Value {
        let Value::Object(members) = &mut self else {
            panic!("cannot add member `{key}` to non-object {self:?}");
        };
        members.push((key, value.into()));
        self
    }

    fn is_container(&self) -> bool {
        matches!(self, Value::Array(_) | Value::Object(_))
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

/// `value` as JSON text under the module's layout rule, ending in a
/// newline.
pub fn render(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

/// Whether `value` renders on one line.
fn one_line(value: &Value) -> bool {
    match value {
        Value::Array(items) => !items.iter().any(Value::is_container),
        Value::Object(members) => members.iter().all(|(_, member)| one_line(member)),
        _ => true,
    }
}

fn write_value(out: &mut String, value: &Value, depth: usize) {
    let ((open, close), members): (_, Vec<(Option<&str>, &Value)>) = match value {
        Value::Null => return out.push_str("null"),
        Value::Bool(b) => return out.push_str(&b.to_string()),
        Value::U64(n) => return out.push_str(&n.to_string()),
        Value::F64(x) if x.is_finite() => return out.push_str(&x.to_string()),
        Value::Fixed(x, decimals) if x.is_finite() => {
            return out.push_str(&format!("{x:.decimals$}"))
        }
        Value::F64(_) | Value::Fixed(..) => return out.push_str("null"),
        Value::Str(s) => return write_string(out, s),
        Value::Array(items) => (('[', ']'), items.iter().map(|item| (None, item)).collect()),
        Value::Object(kv) => (('{', '}'), kv.iter().map(|(k, v)| (Some(*k), v)).collect()),
    };
    let inline = one_line(value);
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, (key, member)) in members.into_iter().enumerate() {
        if i > 0 {
            out.push_str(if inline { ", " } else { "," });
        }
        if !inline {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(": ");
        }
        write_value(out, member, depth + 1);
    }
    if !inline {
        newline(out, depth);
    }
    out.push(close);
}

/// `s` as a JSON string literal: quotes, backslashes and every control
/// character escaped (newline and tab by name, the rest as `\u00xx`).
fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn string(s: &str) -> String {
        render(&Value::from(s)).trim_end().to_string()
    }

    #[test]
    fn strings_escape_quotes_backslashes_and_control_characters() {
        assert_eq!(string("a\"b"), r#""a\"b""#);
        assert_eq!(string("a\\b"), r#""a\\b""#);
        assert_eq!(string("a\nb"), r#""a\nb""#);
        assert_eq!(string("a\tb"), r#""a\tb""#);
        assert_eq!(string("a\u{1}b"), r#""a\u0001b""#);
        // Non-ASCII text passes through unchanged.
        assert_eq!(string("µs → 頁"), "\"µs → 頁\"");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(render(&Value::F64(x)), "null\n");
            assert_eq!(render(&Value::Fixed(x, 2)), "null\n");
        }
        assert_eq!(render(&Value::F64(1.5)), "1.5\n");
        assert_eq!(render(&Value::F64(0.1 + 0.2)), "0.30000000000000004\n");
    }

    #[test]
    fn fixed_decimals_match_format() {
        for x in [0.0, 0.0004, 1.25, 2.675, 7_449_914.3, 517.0949, 1e-9] {
            for decimals in 0..4 {
                assert_eq!(
                    render(&Value::Fixed(x, decimals)).trim_end(),
                    format!("{x:.decimals$}"),
                    "{x} to {decimals} decimals"
                );
            }
        }
    }

    #[test]
    fn scalars_and_empty_containers() {
        assert_eq!(render(&Value::Null), "null\n");
        assert_eq!(render(&Value::from(true)), "true\n");
        assert_eq!(render(&Value::from(u64::MAX)), "18446744073709551615\n");
        assert_eq!(render(&Value::from(None::<u64>)), "null\n");
        assert_eq!(render(&Value::Array(Vec::new())), "[]\n");
        assert_eq!(render(&Value::object()), "{}\n");
        assert_eq!(
            render(
                &Value::object()
                    .with("a", Value::Array(Vec::new()))
                    .with("o", Value::object())
            ),
            "{\"a\": [], \"o\": {}}\n"
        );
    }

    #[test]
    fn layout_puts_every_record_on_a_line_of_its_own() {
        let record = |name: &str, pc: Option<u64>| {
            Value::object()
                .with("name", name)
                .with("pc", pc)
                .with("flags", Value::Array(vec![true.into(), false.into()]))
                .with("args", Value::object().with("n", 3u64))
        };
        let sample = Value::object()
            .with("suite", "sample")
            .with(
                "manifest",
                Value::object().with("git", "abc").with("threads", 2usize),
            )
            .with(
                "workloads",
                Value::Array(vec![
                    Value::object().with("name", "scan").with(
                        "diagnostics",
                        Value::Array(vec![record("a", Some(7)), record("b", None)]),
                    ),
                    Value::object()
                        .with("name", "qsort")
                        .with("diagnostics", Value::Array(Vec::new())),
                ]),
            )
            .with(
                "matrix",
                Value::Array(vec![Value::Array(vec![1u64.into(), 2u64.into()])]),
            );
        let expected = r#"{
  "suite": "sample",
  "manifest": {"git": "abc", "threads": 2},
  "workloads": [
    {
      "name": "scan",
      "diagnostics": [
        {"name": "a", "pc": 7, "flags": [true, false], "args": {"n": 3}},
        {"name": "b", "pc": null, "flags": [true, false], "args": {"n": 3}}
      ]
    },
    {"name": "qsort", "diagnostics": []}
  ],
  "matrix": [
    [1, 2]
  ]
}
"#;
        assert_eq!(render(&sample), expected);
    }

    #[test]
    #[should_panic(expected = "non-object")]
    fn with_on_a_non_object_panics() {
        let _ = Value::Null.with("k", 1u64);
    }
}
