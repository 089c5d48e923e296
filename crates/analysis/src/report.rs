//! Text and JSON rendering of an [`Analysis`].
//!
//! Both renderers are deterministic (diagnostics and predictions are
//! already in canonical order); the JSON goes through
//! `algoprof_vm::json`, like every other report.

use std::fmt::Write as _;

use algoprof_vm::json::{self, Json};

use crate::compose::PredictionKind;
use crate::diag::Level;
use crate::Analysis;

/// Renders the human-readable lint report.
pub fn render_text(analysis: &Analysis, file: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# algoprof lint: {file}");
    let _ = writeln!(out);
    if analysis.diagnostics.is_empty() {
        let _ = writeln!(out, "no findings");
    } else {
        for d in &analysis.diagnostics {
            let _ = writeln!(out, "{}[{}]: {}", d.level, d.code, d.message);
            let _ = writeln!(out, "  --> {}:{}", d.span.function, d.span.line);
        }
    }
    let errors = analysis
        .diagnostics
        .iter()
        .filter(|d| d.level == Level::Error)
        .count();
    let warnings = analysis.diagnostics.len() - errors;
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{errors} error{}, {warnings} warning{}",
        if errors == 1 { "" } else { "s" },
        if warnings == 1 { "" } else { "s" },
    );

    if !analysis.predictions.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "predicted complexity:");
        for p in &analysis.predictions {
            let _ = writeln!(out, "  {}  {}  ({})", p.name, p.class.big_o(), p.detail);
        }
    }
    out
}

/// Renders the machine-readable report.
pub fn render_json(analysis: &Analysis, file: &str) -> String {
    let diagnostics = analysis.diagnostics.iter().map(|d| {
        Json::obj(vec![
            ("level", d.level.as_str().into()),
            ("code", d.code.as_str().into()),
            ("function", d.span.function.as_str().into()),
            ("line", d.span.line.into()),
            ("message", d.message.as_str().into()),
        ])
    });
    let predictions = analysis.predictions.iter().map(|p| {
        let kind = match p.kind {
            PredictionKind::Loop => "loop",
            PredictionKind::Recursion => "recursion",
        };
        Json::obj(vec![
            ("name", p.name.as_str().into()),
            ("kind", kind.into()),
            ("class", p.class.big_o().into()),
            ("function", p.function.as_str().into()),
            ("line", p.line.into()),
            ("detail", p.detail.as_str().into()),
        ])
    });
    let members = vec![
        ("file", file.into()),
        ("errors", analysis.has_errors.into()),
        ("diagnostics", Json::Arr(diagnostics.collect())),
        ("predictions", Json::Arr(predictions.collect())),
    ];
    json::report(members, &["diagnostics", "predictions"])
}
