//! Named metrics and the result line.

use std::fmt::Write as _;

use crate::trace::json_str;

#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    pub fn names(&self) -> Vec<&str> {
        self.0.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; every value must be finite.
    pub fn to_json(&self) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// What one invocation measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub e2e: Metrics,
    pub layers: Metrics,
    /// Inputs and host facts, as JSON values keyed by name.
    pub provenance: Vec<(String, String)>,
    /// Self time per layer module from the traced replay, seconds.
    pub layer_self: Vec<(String, f64)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let metrics = if trace { &self.layers } else { &self.e2e };
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.to_json()?
        ))
    }

    pub fn provenance_json(&self) -> String {
        let fields: Vec<String> = self
            .provenance
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}
