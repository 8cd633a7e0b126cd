//! The frame reader as it was before the one-pass reader: the frame is
//! parsed into a [`JsonValue`] tree, whose `id`, `op` and `files` are then
//! taken out. It is the oracle of the differential mutation test in
//! `serve::frame_mutation`, so its acceptance rules are the one-pass
//! reader's specification.

use super::Request;
use crate::json::{quote, JsonError, JsonValue};
use crate::session::{AnalysisRequest, SourceFile};

/// A request in comparable form: the rendered `id`, the `op` and the
/// files with every text spelled out.
pub(super) type Resolved = (String, String, AnalysisRequest);

/// Reads `line` through a tree, as the serve loop did.
pub(super) fn oracle(line: &str) -> Result<Resolved, JsonError> {
    let doc = JsonValue::parse(line)?;
    let id = render_id(doc.get("id"));
    let op = doc
        .get("op")
        .and_then(JsonValue::as_str)
        .unwrap_or("")
        .to_owned();
    Ok((id, op, take_request(doc)))
}

/// `request` with each text left out as the kept one (`kept(i)` for the
/// file at position `i`) spelled out.
pub(super) fn resolve<'k>(
    request: Request<'_>,
    kept: impl Fn(usize) -> Option<(&'k str, &'k str)>,
) -> Resolved {
    let files = request
        .files
        .into_iter()
        .enumerate()
        .map(|(i, f)| SourceFile {
            text: match f.text {
                Some(text) => text.into_owned(),
                None => {
                    let (name, text) = kept(i).expect("a left-out text has a kept file");
                    assert_eq!(name, f.name, "a left-out text has the kept file's name");
                    text.to_owned()
                }
            },
            name: f.name.into_owned(),
        })
        .collect();
    (
        request.id,
        request.op.into_owned(),
        AnalysisRequest { files },
    )
}

/// Renders the scalar `id` a request carried (anything non-scalar echoes
/// as `null` — the protocol promises echo, not arbitrary re-serialization).
fn render_id(id: Option<&JsonValue>) -> String {
    match id {
        Some(JsonValue::Int(i)) => i.to_string(),
        Some(JsonValue::Str(s)) => quote(s),
        Some(JsonValue::Bool(b)) => b.to_string(),
        _ => "null".to_owned(),
    }
}

/// Moves the value of `value`'s first `key` field out, leaving `null`
/// behind; `null` when there is no such field.
fn take_field(value: &mut JsonValue, key: &str) -> JsonValue {
    match value {
        JsonValue::Obj(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == key)
            .map_or(JsonValue::Null, |(_, v)| {
                std::mem::replace(v, JsonValue::Null)
            }),
        _ => JsonValue::Null,
    }
}

/// The string of `value`'s `key` field, moved out; `""` when the field is
/// missing or not a string.
fn take_string(value: &mut JsonValue, key: &str) -> String {
    match take_field(value, key) {
        JsonValue::Str(s) => s,
        _ => String::new(),
    }
}

/// The `files` of an `analyze` frame, with their names and texts moved out
/// of the parsed tree instead of copied.
fn take_request(mut doc: JsonValue) -> AnalysisRequest {
    let files = match take_field(&mut doc, "files") {
        JsonValue::Arr(items) => items,
        _ => Vec::new(),
    };
    AnalysisRequest {
        files: files
            .into_iter()
            .map(|mut item| SourceFile {
                name: take_string(&mut item, "name"),
                text: take_string(&mut item, "text"),
            })
            .collect(),
    }
}
