//! Figure 8: QAOA cross entropy vs the crosstalk weight factor ω on four
//! crosstalk-prone Poughkeepsie regions, against the noise-free floor and
//! the crosstalk-free-region band.
//!
//! ```text
//! cargo run -p xtalk-bench --release --bin fig8_qaoa [--full]
//! ```

use xtalk_bench::{geomean, mean_sd, Scale};
use xtalk_core::bench_circuits::qaoa_ansatz;
use xtalk_core::{Compiler, ParSched, Scheduler, SchedulerContext, SerialSched, XtalkSched};
use xtalk_device::Device;
use xtalk_sim::{ideal, metrics};

fn main() {
    let scale = Scale::from_args();
    let device = Device::poughkeepsie(scale.seed);
    let compiler = Compiler::new(&device, SchedulerContext::from_ground_truth(&device));

    // Crosstalk-prone regions: chains crossing the planted hot pairs.
    // (The paper lists [5,10,11,12], [7,12,13,14], [15,10,11,12],
    // [11,12,13,14]; our Poughkeepsie model has no 7-12 link, so the
    // second region is replaced by the hot chain [9,14,13,12].)
    let regions: [[u32; 4]; 4] =
        [[5, 10, 11, 12], [9, 14, 13, 12], [15, 10, 11, 12], [11, 12, 13, 14]];
    // Crosstalk-free regions for the ideal band.
    let free_regions: [[u32; 4]; 3] = [[0, 1, 2, 3], [15, 16, 17, 18], [6, 7, 8, 9]];
    let omegas = [0.0, 0.03, 0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 1.0];

    println!("=== Figure 8: QAOA cross entropy vs omega, {} ===\n", device.name());

    let mut par_losses = Vec::new();
    let mut ser_losses = Vec::new();
    let mut best_losses = Vec::new();
    for region in &regions {
        let circuit = qaoa_ansatz(20, region, scale.seed ^ 0x8a);
        let floor = metrics::entropy(&ideal::distribution(&circuit));
        println!("region {region:?} (noise-free floor {floor:.4}):");
        println!("{:>8} {:>14}", "omega", "cross entropy");
        let mut best = f64::INFINITY;
        let ce_at = |sched: &dyn Scheduler, tag: f64| -> f64 {
            compiler
                .qaoa_cross_entropy(sched, &circuit, scale.app_shots, scale.seed ^ (tag * 100.0) as u64)
                .expect("scheduling succeeds")
        };
        for &omega in &omegas {
            // The endpoints are exactly the baselines (Table 1 / Fig. 8:
            // ω=0 ≡ ParSched, ω=1 ≡ SerialSched).
            let ce = if omega == 0.0 {
                ce_at(&ParSched::new(), omega)
            } else if omega == 1.0 {
                ce_at(&SerialSched::new(), omega)
            } else {
                ce_at(&XtalkSched::new(omega), omega)
            };
            if (0.03..=0.2).contains(&omega) {
                best = best.min(ce);
            }
            println!("{omega:>8.2} {ce:>14.4}");
        }
        let par = ce_at(&ParSched::new(), 0.0);
        let ser = ce_at(&SerialSched::new(), 1.0);
        par_losses.push(((par - floor).max(1e-4)) / (best - floor).max(1e-4));
        ser_losses.push(((ser - floor).max(1e-4)) / (best - floor).max(1e-4));
        best_losses.push(best - floor);
        println!();
    }

    // Crosstalk-free band.
    let mut free_ce = Vec::new();
    for region in &free_regions {
        let circuit = qaoa_ansatz(20, region, scale.seed ^ 0x8a);
        let floor = metrics::entropy(&ideal::distribution(&circuit));
        let ce = compiler
            .qaoa_cross_entropy(&ParSched::new(), &circuit, scale.app_shots, scale.seed ^ 0xf2ee)
            .expect("scheduling succeeds");
        free_ce.push(ce - floor);
    }
    let (band_mean, band_sd) = mean_sd(&free_ce);

    println!("cross-entropy-loss improvement of best ω ∈ [0.03, 0.2]:");
    println!(
        "  vs ParSched (ω=0):    geomean {:.2}x, max {:.2}x",
        geomean(&par_losses),
        par_losses.iter().cloned().fold(0.0f64, f64::max)
    );
    println!(
        "  vs SerialSched (ω=1): geomean {:.2}x, max {:.2}x",
        geomean(&ser_losses),
        ser_losses.iter().cloned().fold(0.0f64, f64::max)
    );
    println!(
        "crosstalk-free-region CE loss band: {:.4} ± {:.4} (XtalkSched best losses: {:?})",
        band_mean,
        band_sd,
        best_losses.iter().map(|x| (x * 1e4).round() / 1e4).collect::<Vec<_>>()
    );
    println!(
        "\nPaper shape check: intermediate ω (0.03–0.2) beats both endpoints\n\
         (paper: 1.8x geomean vs ParSched, 2x vs SerialSched), and XtalkSched\n\
         lands within the crosstalk-free band."
    );
}
