//! Offline stand-in for `serde_derive`: `#[derive(Serialize)]` for structs
//! with named fields.
//!
//! Built directly on `proc_macro` token streams (the container has no
//! `syn`/`quote`). The parser is intentionally small: it skips outer
//! attributes and visibility, reads the struct name, and collects the
//! field identifiers from the brace group, tracking `<`/`>` depth so that
//! commas inside generic arguments (`BTreeMap<u64, u32>`) do not split a
//! field. Tuple structs, unit structs, enums, and generic structs are
//! rejected with a compile error — the workspace's experiment rows are all
//! plain named-field structs.
#![forbid(unsafe_code)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derive `serde::Serialize` (the JSON-appending compat trait) for a
/// named-field struct. Field order in the JSON object matches declaration
/// order.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match generate(input) {
        Ok(ts) => ts,
        Err(msg) => format!("compile_error!({msg:?});").parse().expect("compile_error tokens"),
    }
}

fn generate(input: TokenStream) -> Result<TokenStream, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    skip_attrs_and_vis(&tokens, &mut i);
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) if id.to_string() == "struct" => i += 1,
        other => return Err(format!("derive(Serialize) supports only structs, got {other:?}")),
    }
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => {
            i += 1;
            id.to_string()
        }
        other => return Err(format!("expected struct name, got {other:?}")),
    };
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("derive(Serialize) does not support generic struct {name}"));
    }
    let fields = match tokens.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => field_names(g.stream())?,
        other => {
            return Err(format!(
                "derive(Serialize) supports only named-field structs ({name}), got {other:?}"
            ))
        }
    };

    let mut body = String::from("out.push('{');\n");
    for (k, f) in fields.iter().enumerate() {
        body.push_str(&format!(
            "::serde::ser::field(out, {first}, {f:?}, &self.{f});\n",
            first = k == 0
        ));
    }
    body.push_str("out.push('}');");

    let impl_src = format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn json(&self, out: &mut ::std::string::String) {{\n{body}\n}}\n}}"
    );
    impl_src.parse().map_err(|e| format!("generated impl failed to parse: {e:?}"))
}

/// Advance `i` past any `#[...]` outer attributes and a `pub`/`pub(...)`
/// visibility prefix.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                // '#' followed by a bracket group.
                *i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

/// Collect field identifiers from the contents of the struct's brace
/// group: `attrs vis name : Type ,` repeated.
fn field_names(stream: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut names = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        skip_attrs_and_vis(&tokens, &mut i);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => {
                i += 1;
                id.to_string()
            }
            None => break,
            other => return Err(format!("expected field name, got {other:?}")),
        };
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected ':' after field {name}, got {other:?}")),
        }
        // Skip the type: consume until a comma at angle-bracket depth 0.
        // Groups ((), [], {}) are single tokens, so only `<`/`>` need
        // explicit depth tracking.
        let mut depth = 0i32;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => break,
                _ => {}
            }
            i += 1;
        }
        i += 1; // past the comma (or the end)
        names.push(name);
    }
    Ok(names)
}
