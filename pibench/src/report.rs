//! What one run reports: every metric by name with its unit, one per line,
//! then one JSON object on the last line of standard output.

use crate::metrics::Value;

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Value>,
}

impl Report {
    /// `name value unit` lines, then the JSON line. Values are printed with
    /// every digit they were measured with.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
        println!("{}", self.to_json());
    }

    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a metric that came out as
                // one is a bug the correctness flag should carry.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What `selfcheck` reads back from a child run's JSON line.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Reads a JSON line back. Understands only the shape [`Report::to_json`]
/// writes.
pub fn parse(line: &str) -> Option<Parsed> {
    let field = |key: &str| {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(end) = rest.find("\": {\"value\": ") {
        let name = &rest[rest[..end].rfind('"')? + 1..end];
        rest = &rest[end + 13..];
        let value = rest[..rest.find(',')?].parse().ok()?;
        metrics.push((name.to_string(), value));
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_report_reads_back_from_its_own_json() {
        let report = Report {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Value {
                    name: "setup_s",
                    value: 0.812_734_5,
                    unit: "s",
                },
                Value {
                    name: "hot_ops_s",
                    value: 123_456.75,
                    unit: "1/s",
                },
            ],
        };
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.8127345, \"unit\": \"s\"}, \
             \"hot_ops_s\": {\"value\": 123456.75, \"unit\": \"1/s\"}}}"
        );
        assert_eq!(
            parse(&json),
            Some(Parsed {
                correct: true,
                attempted: 12,
                failed: 0,
                metrics: vec![
                    ("setup_s".to_string(), 0.8127345),
                    ("hot_ops_s".to_string(), 123456.75)
                ],
            })
        );
        assert!(parse("not a report").is_none());
    }

    #[test]
    fn a_value_that_is_not_a_number_makes_the_report_incorrect() {
        let report = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: vec![Value {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
        };
        assert!(report.to_json().starts_with("{\"correct\": false"));
    }
}
