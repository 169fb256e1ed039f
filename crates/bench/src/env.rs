//! Experiment environment: CLI flags shared by every binary.

use std::io::Write as _;
use std::path::PathBuf;

use tahoe::telemetry::TelemetrySink;
use tahoe_datasets::Scale;
use tahoe_gpu_sim::kernel::Detail;

/// Parsed experiment flags.
#[derive(Clone, Debug)]
pub struct Env {
    /// Dataset/forest scale (`--scale paper|ci|smoke`, default `ci`).
    pub scale: Scale,
    /// Blocks simulated in detail per kernel (`--detail N|full`, default 32).
    pub detail: Detail,
    /// Chrome trace-event JSON output (`--trace <path>`); `None` = off.
    pub trace: Option<PathBuf>,
    /// Metrics-snapshot JSON output (`--metrics <path>`); `None` = off.
    pub metrics: Option<PathBuf>,
    /// Per-kernel profiler JSON output (`--profile <path>`); `None` = off.
    pub profile: Option<PathBuf>,
    /// Windowed time-series JSON output (`--timeseries <path>`);
    /// `None` = off.
    pub timeseries: Option<PathBuf>,
    /// Flight-recorder JSON output (`--decisions <path>`); `None` = off.
    pub decisions: Option<PathBuf>,
    /// Telemetry sink for the run: recording iff `--trace`, `--metrics`,
    /// `--profile`, `--timeseries`, or `--decisions` was given, otherwise
    /// disabled (zero overhead).
    pub sink: TelemetrySink,
}

impl Default for Env {
    fn default() -> Self {
        Self {
            scale: Scale::Ci,
            detail: Detail::Sampled(32),
            trace: None,
            metrics: None,
            profile: None,
            timeseries: None,
            decisions: None,
            sink: TelemetrySink::Disabled,
        }
    }
}

impl Env {
    /// Parses process arguments; unknown flags abort with usage.
    ///
    /// # Panics
    ///
    /// Panics (with usage) on malformed flags.
    #[must_use]
    pub fn from_args() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses an explicit argument list (testable).
    ///
    /// # Panics
    ///
    /// Panics (with usage) on malformed flags.
    #[must_use]
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut env = Env::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().unwrap_or_else(|| usage("missing value for --scale"));
                    env.scale = Scale::parse(&v)
                        .unwrap_or_else(|| usage(&format!("unknown scale '{v}'")));
                }
                "--detail" => {
                    let v = it.next().unwrap_or_else(|| usage("missing value for --detail"));
                    env.detail = if v.eq_ignore_ascii_case("full") {
                        Detail::Full
                    } else {
                        let n: usize = v
                            .parse()
                            .unwrap_or_else(|_| usage(&format!("bad detail '{v}'")));
                        Detail::Sampled(n.max(1))
                    };
                }
                "--trace" => {
                    let v = it.next().unwrap_or_else(|| usage("missing value for --trace"));
                    env.trace = Some(PathBuf::from(v));
                }
                "--metrics" => {
                    let v = it.next().unwrap_or_else(|| usage("missing value for --metrics"));
                    env.metrics = Some(PathBuf::from(v));
                }
                "--profile" => {
                    let v = it.next().unwrap_or_else(|| usage("missing value for --profile"));
                    env.profile = Some(PathBuf::from(v));
                }
                "--timeseries" => {
                    let v =
                        it.next().unwrap_or_else(|| usage("missing value for --timeseries"));
                    env.timeseries = Some(PathBuf::from(v));
                }
                "--decisions" => {
                    let v =
                        it.next().unwrap_or_else(|| usage("missing value for --decisions"));
                    env.decisions = Some(PathBuf::from(v));
                }
                "--help" | "-h" => usage("usage"),
                other => usage(&format!("unknown flag '{other}'")),
            }
        }
        if env.trace.is_some()
            || env.metrics.is_some()
            || env.profile.is_some()
            || env.timeseries.is_some()
            || env.decisions.is_some()
        {
            env.sink = TelemetrySink::recording();
        }
        env
    }

    /// Writes the requested telemetry exports: the Chrome trace to `--trace`,
    /// the metrics snapshot to `--metrics`, the per-kernel profiles to
    /// `--profile`, the windowed time series to `--timeseries`, the
    /// flight-recorder export to `--decisions`, and (when recording)
    /// `telemetry_metrics` + `kernel_profiles` + `timeseries` +
    /// `decision_audit` result JSONs for `report_md`. No-op when no
    /// telemetry flag was given.
    ///
    /// # Panics
    ///
    /// Panics when an output path cannot be written.
    pub fn export_telemetry(&self) {
        if let Some(path) = &self.trace {
            let write = || -> std::io::Result<()> {
                let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
                self.sink.write_chrome_trace(&mut w)?;
                w.flush()
            };
            write().unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
            eprintln!("wrote Chrome trace to {}", path.display());
        }
        if let Some(path) = &self.metrics {
            std::fs::write(path, self.sink.metrics_json())
                .unwrap_or_else(|e| panic!("cannot write metrics {}: {e}", path.display()));
            eprintln!("wrote metrics snapshot to {}", path.display());
        }
        if let Some(path) = &self.profile {
            std::fs::write(path, self.sink.profiles_json())
                .unwrap_or_else(|e| panic!("cannot write profiles {}: {e}", path.display()));
            eprintln!("wrote kernel profiles to {}", path.display());
        }
        if let Some(path) = &self.timeseries {
            std::fs::write(path, self.sink.timeseries_json())
                .unwrap_or_else(|e| panic!("cannot write timeseries {}: {e}", path.display()));
            eprintln!("wrote time series to {}", path.display());
        }
        if let Some(path) = &self.decisions {
            std::fs::write(path, self.sink.decisions_json())
                .unwrap_or_else(|e| panic!("cannot write decisions {}: {e}", path.display()));
            eprintln!("wrote decision audit to {}", path.display());
        }
        if self.sink.is_enabled() {
            crate::report::write_json("telemetry_metrics", &self.sink.snapshot());
            crate::report::write_json("kernel_profiles", &self.sink.profiles());
            crate::report::write_json("timeseries", &self.sink.timeseries());
            crate::report::write_json("decision_audit", &self.sink.decisions());
        }
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: <experiment> [--scale paper|ci|smoke] [--detail N|full] \
         [--trace <path>] [--metrics <path>] [--profile <path>] \
         [--timeseries <path>] [--decisions <path>]"
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Env {
        Env::parse(args.iter().map(ToString::to_string))
    }

    #[test]
    fn defaults() {
        let e = parse(&[]);
        assert_eq!(e.scale, Scale::Ci);
        assert_eq!(e.detail, Detail::Sampled(32));
        assert!(e.trace.is_none() && e.metrics.is_none());
        assert!(!e.sink.is_enabled());
    }

    #[test]
    fn scale_and_detail_flags() {
        let e = parse(&["--scale", "smoke", "--detail", "8"]);
        assert_eq!(e.scale, Scale::Smoke);
        assert_eq!(e.detail, Detail::Sampled(8));
        let e = parse(&["--detail", "full"]);
        assert_eq!(e.detail, Detail::Full);
    }

    #[test]
    fn telemetry_flags_enable_the_sink() {
        let e = parse(&["--trace", "/tmp/t.json"]);
        assert_eq!(e.trace.as_deref(), Some(std::path::Path::new("/tmp/t.json")));
        assert!(e.sink.is_enabled());
        let e = parse(&["--metrics", "/tmp/m.json"]);
        assert!(e.sink.is_enabled());
        let e = parse(&["--profile", "/tmp/p.json"]);
        assert_eq!(e.profile.as_deref(), Some(std::path::Path::new("/tmp/p.json")));
        assert!(e.sink.is_enabled());
        let e = parse(&["--timeseries", "/tmp/ts.json"]);
        assert_eq!(
            e.timeseries.as_deref(),
            Some(std::path::Path::new("/tmp/ts.json"))
        );
        assert!(e.sink.is_enabled());
        let e = parse(&["--decisions", "/tmp/d.json"]);
        assert_eq!(
            e.decisions.as_deref(),
            Some(std::path::Path::new("/tmp/d.json"))
        );
        assert!(e.sink.is_enabled());
    }
}
