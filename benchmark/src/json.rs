//! Small constructors over the vendored `serde` value tree.

use serde::{Map, Number, Value};

pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    let mut map = Map::new();
    for (key, value) in fields {
        map.insert(key.to_string(), value);
    }
    Value::Object(map)
}

pub fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

pub fn int(v: u64) -> Value {
    Value::Number(Number::PosInt(v))
}

pub fn text(v: &str) -> Value {
    Value::String(v.to_string())
}

/// Field `key` of object `value`.
pub fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object()?.get(key)
}

pub fn items(value: &Value) -> &[Value] {
    match value {
        Value::Array(items) => items,
        _ => &[],
    }
}
