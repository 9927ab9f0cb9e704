//! Offline stand-in for the `serde` crate: the `Serialize` half only,
//! specialised to JSON.
//!
//! The workspace is built without registry access, so this crate provides
//! just the surface the repo uses: a [`Serialize`] trait, impls for the
//! primitive/std types our experiment rows contain, and a re-exported
//! `#[derive(Serialize)]` macro (from the sibling `serde_derive` compat
//! crate). `serde_json::to_string` drives the trait.
//!
//! The wire format is deliberately simple: `Serialize::json` appends the
//! JSON encoding of `self` to a `String`. Output is deterministic — no
//! maps with randomized iteration order, floats via Rust's shortest
//! round-trip formatting — so byte-identical re-runs stay byte-identical.
#![forbid(unsafe_code)]

// Let `::serde::...` paths emitted by the derive macro resolve even when
// the derive is used inside this crate (e.g. in the tests below).
extern crate self as serde;

pub use serde_derive::Serialize;

/// Types that can append their JSON encoding to a buffer.
///
/// Implemented by `#[derive(Serialize)]` for structs with named fields;
/// hand-written impls below cover primitives, strings, options, vectors,
/// slices and fixed-size arrays.
pub trait Serialize {
    /// Append the JSON encoding of `self` to `out`.
    fn json(&self, out: &mut String);
}

/// Helpers used by the generated derive code. Not intended to be called
/// directly, but harmless if you do.
pub mod ser {
    use super::Serialize;

    /// Write one struct field: a leading comma unless `first`, the quoted
    /// key, a colon, then the value.
    pub fn field<T: Serialize + ?Sized>(out: &mut String, first: bool, name: &str, value: &T) {
        if !first {
            out.push(',');
        }
        string(out, name);
        out.push(':');
        value.json(out);
    }

    /// Write a JSON string literal with escaping.
    pub fn string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

macro_rules! int_impl {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}

int_impl!(u8, u16, u32, u64, u128, usize, i8, i16, i32, i64, i128, isize);

impl Serialize for bool {
    fn json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl Serialize for f64 {
    fn json(&self, out: &mut String) {
        if self.is_finite() {
            // Shortest round-trip formatting: deterministic and lossless.
            out.push_str(&self.to_string());
        } else {
            // JSON has no NaN/Inf; serde_json emits null for them too.
            out.push_str("null");
        }
    }
}

impl Serialize for f32 {
    fn json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl Serialize for str {
    fn json(&self, out: &mut String) {
        ser::string(out, self);
    }
}

impl Serialize for String {
    fn json(&self, out: &mut String) {
        ser::string(out, self);
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn json(&self, out: &mut String) {
        (**self).json(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn json(&self, out: &mut String) {
        match self {
            Some(v) => v.json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.json(out);
        }
        out.push(']');
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn json(&self, out: &mut String) {
        self.as_slice().json(out);
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn json(&self, out: &mut String) {
        self.as_slice().json(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_json<T: Serialize>(v: T) -> String {
        let mut s = String::new();
        v.json(&mut s);
        s
    }

    #[test]
    fn primitives() {
        assert_eq!(to_json(42u64), "42");
        assert_eq!(to_json(-7i32), "-7");
        assert_eq!(to_json(true), "true");
        assert_eq!(to_json(1.5f64), "1.5");
        assert_eq!(to_json(f64::NAN), "null");
        assert_eq!(to_json("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn containers() {
        assert_eq!(to_json(vec![1u32, 2, 3]), "[1,2,3]");
        assert_eq!(to_json([0.5f64; 2]), "[0.5,0.5]");
        assert_eq!(to_json(Option::<u64>::None), "null");
        assert_eq!(to_json(Some(9usize)), "9");
    }

    #[test]
    fn derive_emits_object() {
        #[derive(Serialize)]
        struct Row {
            name: &'static str,
            n: usize,
            xs: [f64; 2],
            opt: Option<u64>,
        }
        let r = Row { name: "fig6", n: 3, xs: [1.0, 2.5], opt: None };
        assert_eq!(to_json(r), r#"{"name":"fig6","n":3,"xs":[1,2.5],"opt":null}"#);
    }
}
