//! Figure = labelled series over a shared x-axis, rendered as markdown
//! (for stdout) or JSON (for the `--json` reporter).

use crate::json::Json;

/// One series of a figure.
#[derive(Debug, Clone)]
pub struct Series {
    pub label: String,
    /// (x tick label, y value) pairs.
    pub points: Vec<(String, f64)>,
}

impl Series {
    pub(crate) fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, x: impl Into<String>, y: f64) {
        self.points.push((x.into(), y));
    }
}

/// One reproduced figure.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier, e.g. "fig08".
    pub id: String,
    pub(crate) title: String,
    pub(crate) x_label: String,
    pub(crate) y_label: String,
    pub series: Vec<Series>,
    /// Free-form notes (calibration caveats, paper comparison).
    pub(crate) notes: Vec<String>,
}

impl Figure {
    pub(crate) fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub(crate) fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// The union of x tick labels across series, in first-seen order.
    fn ticks(&self) -> Vec<String> {
        let mut ticks = Vec::new();
        for s in &self.series {
            for (x, _) in &s.points {
                if !ticks.contains(x) {
                    ticks.push(x.clone());
                }
            }
        }
        ticks
    }

    /// Renders the figure as a markdown table (rows = x ticks).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {} — {}\n\n", self.id, self.title));
        let ticks = self.ticks();
        out.push_str(&format!(
            "| {} | {} |\n",
            self.x_label,
            self.series
                .iter()
                .map(|s| s.label.as_str())
                .collect::<Vec<_>>()
                .join(" | ")
        ));
        out.push_str(&format!("|{}\n", "---|".repeat(self.series.len() + 1)));
        for tick in &ticks {
            let mut row = format!("| {tick} ");
            for s in &self.series {
                let v = s.points.iter().find(|(x, _)| x == tick).map(|(_, y)| *y);
                match v {
                    Some(y) if y.is_finite() => row.push_str(&format!("| {y:.3} ")),
                    _ => row.push_str("| — "),
                }
            }
            row.push_str("|\n");
            out.push_str(&row);
        }
        out.push_str(&format!("\n*y: {}*\n", self.y_label));
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out.push('\n');
        out
    }

    /// The figure as a JSON value. Non-finite y values (unrecovered runs)
    /// serialize as `null`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("id", Json::str(&self.id)),
            ("title", Json::str(&self.title)),
            ("x_label", Json::str(&self.x_label)),
            ("y_label", Json::str(&self.y_label)),
            (
                "series",
                Json::Arr(
                    self.series
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("label", Json::str(&s.label)),
                                (
                                    "points",
                                    Json::Arr(
                                        s.points
                                            .iter()
                                            .map(|(x, y)| {
                                                Json::obj(vec![
                                                    ("x", Json::str(x)),
                                                    ("y", Json::opt_num(Some(*y))),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().map(Json::str).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_rendering() {
        let mut f = Figure::new("figX", "Test", "x", "latency (s)");
        let mut a = Series::new("A");
        a.push("p1", 1.0);
        a.push("p2", 2.5);
        let mut b = Series::new("B");
        b.push("p1", 3.0);
        f.series.push(a);
        f.series.push(b);
        f.note("a note");
        let md = f.to_markdown();
        assert!(md.contains("### figX — Test"));
        assert!(md.contains("| x | A | B |"));
        assert!(
            md.contains("\n|---|---|---|\n"),
            "one delimiter cell per column:\n{md}"
        );
        assert!(md.contains("| p1 | 1.000 | 3.000 |"));
        assert!(
            md.contains("| p2 | 2.500 | — |"),
            "missing point renders as dash:\n{md}"
        );
        assert!(md.contains("> a note"));
    }

    #[test]
    fn ticks_preserve_order() {
        let mut f = Figure::new("f", "t", "x", "y");
        let mut s = Series::new("s");
        s.push("b", 1.0);
        s.push("a", 2.0);
        f.series.push(s);
        assert_eq!(f.ticks(), vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn json_rendering_nan_is_null() {
        let mut f = Figure::new("f", "t", "x", "y");
        let mut s = Series::new("s");
        s.push("a", 1.5);
        s.push("b", f64::NAN);
        f.series.push(s);
        let json = f.to_json().to_pretty();
        assert!(json.contains("\"id\": \"f\""));
        assert!(json.contains("\"y\": 1.5"));
        assert!(
            json.contains("\"y\": null"),
            "NaN serializes as null:\n{json}"
        );
        assert!(!json.contains("NaN"));
    }

    #[test]
    fn nan_renders_as_dash() {
        let mut f = Figure::new("f", "t", "x", "y");
        let mut s = Series::new("s");
        s.push("a", f64::NAN);
        f.series.push(s);
        assert!(f.to_markdown().contains("| a | — |"));
    }
}
