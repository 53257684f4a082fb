//! CSV export of the report's figures and tables — the flat files a
//! plotting pipeline (matplotlib, gnuplot, R) consumes to redraw the
//! paper's charts.

use crate::report::{Report, CSVS};
use std::fmt::Write as _;

/// Escape a CSV field (quotes fields containing commas/quotes).
fn field(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl Report {
    /// Fig. 1 as CSV: `breadth,depth,count` (non-zero cells only).
    pub fn fig1_csv(&self) -> String {
        let mut out = String::from("breadth,depth,count\n");
        for d in 0..self.fig1.height() {
            for b in 0..self.fig1.width() {
                let c = self.fig1.get(b, d);
                if c > 0 {
                    let _ = writeln!(out, "{b},{d},{c}");
                }
            }
        }
        out
    }

    /// Fig. 2 as CSV: `bin_low,bin_high,children_freq,parents_freq`.
    pub fn fig2_csv(&self) -> String {
        let mut out = String::from("bin_low,bin_high,children_freq,parents_freq\n");
        let rc = self.fig2.children.relative();
        let rp = self.fig2.parents.relative();
        for i in 0..rc.len() {
            let _ = writeln!(
                out,
                "{:.1},{:.1},{:.6},{:.6}",
                i as f64 / rc.len() as f64,
                (i + 1) as f64 / rc.len() as f64,
                rc[i],
                rp[i]
            );
        }
        out
    }

    /// Fig. 3 as CSV: `depth,total,first_party,third_party,tracking,non_tracking`.
    pub fn fig3_csv(&self) -> String {
        let mut out = String::from("depth,total,first_party,third_party,tracking,non_tracking\n");
        for (d, lvl) in self.fig3.levels.iter().enumerate() {
            let _ = writeln!(
                out,
                "{d},{},{},{},{},{}",
                lvl.total(),
                lvl.first_party,
                lvl.third_party,
                lvl.tracking,
                lvl.non_tracking
            );
        }
        out
    }

    /// Fig. 4 as CSV: `depth,child_similarity,parent_similarity,n`.
    pub fn fig4_csv(&self) -> String {
        let mut out = String::from("depth,child_similarity,parent_similarity,n\n");
        for (d, ((c, p), n)) in self
            .fig4
            .children
            .iter()
            .zip(&self.fig4.parents)
            .zip(&self.fig4.counts)
            .enumerate()
        {
            let _ = writeln!(out, "{d},{c:.6},{p:.6},{n}");
        }
        out
    }

    /// Fig. 7 as CSV: `kind,resource_type,depth,similarity`.
    pub fn fig7_csv(&self) -> String {
        let mut out = String::from("kind,resource_type,depth,similarity\n");
        for (kind, m) in [
            ("children", &self.fig7.children),
            ("parents", &self.fig7.parents),
        ] {
            for (ty, series) in m {
                for (d, v) in series.iter().enumerate() {
                    let _ = writeln!(out, "{kind},{},{d},{v:.6}", field(ty.label()));
                }
            }
        }
        out
    }

    /// Fig. 8 as CSV: `depth,mean_children,mean_children_nonleaf`.
    pub fn fig8_csv(&self) -> String {
        let mut out = String::from("depth,mean_children,mean_children_nonleaf\n");
        for (d, (m, mnl)) in self
            .fig8
            .mean_children
            .iter()
            .zip(&self.fig8.mean_children_nonleaf)
            .enumerate()
        {
            let _ = writeln!(out, "{d},{m:.6},{mnl:.6}");
        }
        out
    }

    /// Table 5 as CSV.
    pub fn table5_csv(&self) -> String {
        let mut out = String::from("profile,nodes,third_party,tracker,max_depth,max_breadth\n");
        for r in &self.table5 {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                field(&r.name),
                r.nodes,
                r.third_party,
                r.tracker,
                r.max_depth,
                r.max_breadth
            );
        }
        out
    }

    /// Table 7 as CSV.
    pub fn table7_csv(&self) -> String {
        let mut out = String::from("bucket,mean_nodes,child_sim,parent_sim,pages\n");
        for r in &self.table7.rows {
            let _ = writeln!(
                out,
                "{},{:.3},{:.4},{:.4},{}",
                field(&r.bucket),
                r.mean_nodes,
                r.child_sim,
                r.parent_sim,
                r.pages
            );
        }
        out
    }

    /// Write every CSV export ([`CSVS`]) into a directory, one file each.
    pub fn write_csv_dir(&self, dir: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (_, file, to_csv) in CSVS {
            let path = dir.join(file);
            std::fs::write(&path, to_csv(self))?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Experiment, ExperimentConfig, Scale};
    use std::sync::OnceLock;

    fn report() -> &'static Report {
        static R: OnceLock<Report> = OnceLock::new();
        R.get_or_init(|| {
            let results = Experiment::new(ExperimentConfig::at_scale(Scale::Tiny)).run();
            Report::generate(&results)
        })
    }

    #[test]
    fn csvs_have_headers_and_rows() {
        let r = report();
        for (csv, header) in [
            (r.fig1_csv(), "breadth,depth,count"),
            (r.fig2_csv(), "bin_low"),
            (r.fig3_csv(), "depth,total"),
            (r.fig4_csv(), "depth,child_similarity"),
            (r.fig7_csv(), "kind,resource_type"),
            (r.fig8_csv(), "depth,mean_children"),
            (r.table5_csv(), "profile,nodes"),
            (r.table7_csv(), "bucket,mean_nodes"),
        ] {
            assert!(csv.starts_with(header), "header mismatch: {csv:.60}");
            assert!(csv.lines().count() > 2, "csv should have data rows");
        }
    }

    #[test]
    fn fig2_rows_are_probabilities() {
        let csv = report().fig2_csv();
        let mut total = 0.0f64;
        for line in csv.lines().skip(1) {
            let cols: Vec<&str> = line.split(',').collect();
            total += cols[2].parse::<f64>().unwrap();
        }
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn write_dir_creates_files() {
        let dir = std::env::temp_dir().join("wmtree_csv_test");
        let _ = std::fs::remove_dir_all(&dir);
        let files = report().write_csv_dir(&dir).unwrap();
        assert_eq!(files.len(), 8);
        for f in &files {
            assert!(f.exists());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(field("plain"), "plain");
        assert_eq!(field("a,b"), "\"a,b\"");
        assert_eq!(field("q\"q"), "\"q\"\"q\"");
    }
}
