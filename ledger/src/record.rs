//! The one-line JSON record a child process prints for its parent:
//! named numbers, named strings and correctness checks.

use std::collections::BTreeMap;

use spectral_telemetry::{json_number, json_quote, JsonValue};

/// A correctness check and its outcome.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// What was compared, for the report.
    pub detail: String,
}

/// Results of one child process.
#[derive(Debug, Clone, Default)]
pub struct Record {
    /// Measured or counted values by metric name.
    pub nums: BTreeMap<String, f64>,
    /// Descriptive values (hashes, versions) by key.
    pub info: BTreeMap<String, String>,
    /// Correctness checks in the order they ran.
    pub checks: Vec<Check>,
}

impl Record {
    /// Set number `key`.
    pub fn num(&mut self, key: &str, value: f64) {
        self.nums.insert(key.to_owned(), value);
    }

    /// Set string `key`.
    pub fn info(&mut self, key: &str, value: impl Into<String>) {
        self.info.insert(key.to_owned(), value.into());
    }

    /// Record a check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check { name: name.to_owned(), ok, detail: detail.into() });
    }

    /// Whether every check held.
    pub fn all_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Serialise to one line of JSON.
    pub fn to_json(&self) -> String {
        let nums: Vec<String> = self
            .nums
            .iter()
            .map(|(k, v)| format!("{}:{}", json_quote(k), json_number(*v)))
            .collect();
        let info: Vec<String> =
            self.info.iter().map(|(k, v)| format!("{}:{}", json_quote(k), json_quote(v))).collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                    json_quote(&c.name),
                    c.ok,
                    json_quote(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\"nums\":{{{}}},\"info\":{{{}}},\"checks\":[{}]}}",
            nums.join(","),
            info.join(","),
            checks.join(",")
        )
    }

    /// Parse a line written by [`to_json`](Self::to_json).
    pub fn from_json(line: &str) -> Result<Record, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("bad child record: {e:?}"))?;
        let obj = |k: &str| {
            v.get(k).and_then(JsonValue::as_obj).ok_or_else(|| format!("child record lacks {k}"))
        };
        let mut r = Record::default();
        for (k, x) in obj("nums")? {
            r.num(k, x.as_f64().ok_or_else(|| format!("{k} is not a number"))?);
        }
        for (k, x) in obj("info")? {
            r.info(k, x.as_str().ok_or_else(|| format!("{k} is not a string"))?);
        }
        for c in v.get("checks").and_then(JsonValue::as_arr).ok_or("child record lacks checks")? {
            let field = |k: &str| c.get(k).ok_or_else(|| format!("check lacks {k}"));
            r.check(
                field("name")?.as_str().unwrap_or_default(),
                field("ok")?.as_bool().unwrap_or(false),
                field("detail")?.as_str().unwrap_or_default(),
            );
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_json() {
        let mut r = Record::default();
        r.num("time_to_estimate_s", 1.25);
        r.info("content_hash", "0x1234abcd");
        r.check("control delta is zero", true, "delta 0");
        r.check("sweep serial equals parallel", false, "mean \"differs\"");
        let back = Record::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.nums, r.nums);
        assert_eq!(back.info, r.info);
        assert_eq!(back.checks.len(), 2);
        assert!(!back.all_ok());
        assert_eq!(back.checks[1].detail, "mean \"differs\"");
    }
}
