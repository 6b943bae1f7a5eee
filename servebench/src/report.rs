//! Sample summaries and the result line.

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics in insertion order.
#[derive(Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    /// Records `<name>.p50` and `<name>.mean` of a sample.
    pub fn push_timing(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        self.push(format!("{name}.p50"), quantile(samples, 0.5), unit);
        self.push(format!("{name}.mean"), mean(samples), unit);
    }

    /// Value of a recorded metric.
    pub fn get(&self, name: &str) -> f64 {
        self.entries
            .iter()
            .find(|(n, _, _)| n == name)
            .map_or(f64::NAN, |(_, v, _)| *v)
    }

    /// Prints one `metric <name> <value> <unit>` line per metric, for
    /// reading by eye.
    pub fn print(&self) {
        for (name, value, unit) in &self.entries {
            println!("metric {name} {value} {unit}");
        }
    }

    /// The result line: one JSON object. Fails on a value JSON cannot
    /// carry (NaN or infinite).
    pub fn result_json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut body = Vec::with_capacity(self.entries.len());
        for (name, value, unit) in &self.entries {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            body.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        ))
    }
}
