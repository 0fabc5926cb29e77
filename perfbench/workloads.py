"""The three benchmark workloads: CLI arguments, synthetic sizes, rationale.

Each workload generates its panel with ``generate_synthetic(n, m, T,
seed=<--seed>)``, writes it to files and hands the CLI only those files.
``tiny`` is the same command on an (8, 3, 60) panel with a few epochs; it
is the warm-up and the first-call probe inside ``setup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    sizes: tuple  # (n circuits, m substations, T bins)
    args: tuple  # CLI flags after the command name, before --panel/--topology
    tiny_args: tuple
    why: str
    dominant: tuple  # span names predicted to hold the largest self time

    def argv(self, panel: str, topology: str, out: str, seed: int, tiny: bool = False):
        return [self.command, *(self.tiny_args if tiny else self.args),
                "--panel", panel, "--topology", topology, "--out", out,
                "--seed", str(seed)]


TINY_SIZES = (8, 3, 60)

FIT_KERNELS = ("kernels.excitation_series", "kernels.excitation_beta_series",
               "kernels.loglik_value", "kernels.loglik_grads")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="run-fit",
            command="run",
            sizes=(24, 6, 400),
            args=("--t0", "301", "--alpha", "0.1", "--K", "10", "--epochs", "1000"),
            tiny_args=("--t0", "31", "--alpha", "0.1", "--K", "5", "--epochs", "20"),
            why="one-shot run in the small-n regime, where per-row Python loops "
                "of the fit kernels are about 90% of the time",
            dominant=FIT_KERNELS,
        ),
        Workload(
            name="evaluate-qr",
            command="evaluate",
            sizes=(96, 12, 400),
            args=("--t0", "301", "--test_len", "10", "--alpha", "0.1", "--K", "10",
                  "--epochs", "300", "--quantile_method", "qr"),
            tiny_args=("--t0", "31", "--test_len", "1", "--alpha", "0.1", "--K", "5",
                       "--epochs", "20", "--quantile_method", "qr"),
            why="rolling evaluation with QR quantiles at n=96: qr_quantile fits "
                "all 96 score rows when 12 are distinct, and the fit is matmul-bound",
            dominant=("conformal.qr_quantile",),
        ),
        Workload(
            name="forecast-sim",
            command="forecast",
            sizes=(24, 6, 400),
            args=("--t0", "301", "--horizon", "52", "--K", "200", "--epochs", "200"),
            tiny_args=("--t0", "31", "--horizon", "5", "--K", "10", "--epochs", "20"),
            why="200-scenario forecast: pure-Python Poisson draws in one-bin "
                "calibration calls and 52-step trajectories dominate",
            dominant=("kernels.simulate_counts",),
        ),
    )
}
