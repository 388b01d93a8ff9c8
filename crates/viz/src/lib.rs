#![warn(missing_docs)]

//! DIO's visualizer component: a text-mode Kibana.
//!
//! "The *visualizer* provides an automated approach towards exploring ...
//! and visually depicting (e.g., through tables, histograms, time-series
//! graphs) the analysis findings" (§II-D). This crate renders the same
//! artifacts to text and CSV:
//!
//! * [`Table`] — Fig. 2-style event tables with grouped timestamps;
//! * [`Chart`] / [`BarChart`] / [`Heatmap`] — Fig. 3/4-style time series,
//!   distribution bars, and thread-activity heatmaps;
//! * [`Dashboard`] — named panels bound to backend queries, including the
//!   [`dashboards`] predefined with DIO;
//! * [`render_latency_waterfall`] — per-stage p50/p99 bars and the
//!   end-to-end latency distribution of the pipeline's own event spans;
//! * [`render_top`] — the `dio top` live view: per-process syscall rates
//!   with activity sparklines, hottest files, and active alerts from the
//!   streaming diagnosis engine;
//! * [`render_storage_panel`] / [`render_compaction_timeline`] — the
//!   storage engine's occupancy, compaction debt, fsync latency, and
//!   compaction phase timeline for persistent sessions.

mod chart;
mod dashboard;
mod health;
mod storage;
mod table;
mod top;
mod waterfall;

pub use chart::{BarChart, Chart, Heatmap, Series};
pub use dashboard::{dashboards, Dashboard, Panel, PanelSpec};
pub use health::{render_health_dashboard, HealthReport};
pub use storage::{latest_storage_report, render_compaction_timeline, render_storage_panel};
pub use table::{group_digits, CellFormat, Column, Table};
pub use top::{
    render_alert_history, render_dfg_panel, render_rules_panel, render_top, render_top_snapshot,
    sparkline, top_snapshot, TopFile, TopOptions, TopProcess, TopSnapshot,
};
pub use waterfall::render_latency_waterfall;
