//! Minimal JSON emission for the run report — hand-rolled (the
//! workspace is offline; no serde) and small because the report shape is
//! fixed: objects, strings, numbers, booleans, null.

use std::fmt::Write;

/// A JSON value under construction.
pub enum Value {
    /// A string (escaped on render).
    Str(String),
    /// An integer.
    Int(i128),
    /// A float, rendered with enough precision to round-trip.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// An ordered object.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Convenience: an object from `(key, value)` pairs.
    pub fn object(pairs: Vec<(&str, Value)>) -> Value {
        Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as pretty-printed JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Float(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips, and always includes a decimal point.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Null => out.push_str("null"),
            Value::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in pairs.iter().enumerate() {
                    pad(out, indent + 1);
                    Value::Str(k.clone()).write(out, indent + 1);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                    out.push_str(if i + 1 < pairs.len() { ",\n" } else { "\n" });
                }
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_escaped_nested_json() {
        let v = Value::object(vec![
            ("name", Value::Str("a \"quoted\"\nname".into())),
            ("n", Value::Int(42)),
            ("x", Value::Float(0.8125)),
            ("ok", Value::Bool(true)),
            ("none", Value::Null),
            ("empty", Value::Object(vec![])),
        ]);
        let text = v.render();
        assert!(text.contains("\"a \\\"quoted\\\"\\nname\""));
        assert!(text.contains("0.8125"));
        assert!(text.contains("\"none\": null"));
        assert!(text.ends_with("}\n"));
        // NaN must degrade to null, not produce invalid JSON.
        assert_eq!(Value::Float(f64::NAN).render(), "null\n");
    }
}
