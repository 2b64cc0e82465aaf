//! The result line the benchmark prints last:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// Creates a metric.
    #[must_use]
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the result line. Values print with every digit Rust's shortest
/// round-trip formatting gives them.
///
/// # Errors
///
/// Returns the name of the first metric whose value is not finite (JSON
/// has no representation for it).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for metric in metrics {
        if !metric.value.is_finite() {
            return Err(format!(
                "metric `{}` is not finite ({})",
                metric.name, metric.value
            ));
        }
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            metric.name, metric.value, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_the_contract_shape() {
        let line = result_line(
            true,
            1000,
            0,
            &[
                Metric::new("latency_ms", 1.2034, "ms"),
                Metric::new("setup_s", 3.0, "s"),
            ],
        )
        .expect("finite");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn refuses_non_finite_values() {
        assert!(result_line(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]).is_err());
    }
}
