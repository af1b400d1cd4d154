"""Walk through the closed-form saturation model.

For a handful of node densities: solve the transmission-probability fixed
point of a BEB ladder, search the throughput-optimal tau, and synthesize the
integer ladder whose fixed point lands closest to it.
"""

from icl_csma.analytic_model import (
    BackoffLadder,
    NetworkParams,
    optimize_tau,
    solve_ladder,
    solve_tau,
    throughput,
)

params = NetworkParams()  # standard 1 Mbps DCF timing set
print("timing constants (us):", params.to_mapping())
print()

# The fixed point of a fixed ladder: tau drops as contention grows.
ladder = BackoffLadder.beb(32, 5, 8192)
print(f"BEB ladder {ladder.thresholds}, cap {ladder.cap}")
for n in (1, 2, 5, 10, 20, 50):
    fp = solve_tau(ladder, n)
    u = throughput(fp.tau, n, params)
    print(f"  N={n:3d}: tau={fp.tau:.6f}  p={fp.p:.4f}  U={u:.5f}  "
          f"(residual {fp.residual:.1e}, {fp.iterations} evaluations of g)")
print()

# Designing the ladder instead: maximize U over tau, then invert.
print(f"{'N':>4} {'tau*':>10} {'1/N':>10} {'U*':>8}  ladder (W_0 .. W_K)")
for n in (2, 3, 4, 5, 6, 50, 500):
    tau_star, u_star = optimize_tau(n, params)
    designed, achieved = solve_ladder(tau_star, n, 8, 32768)
    print(f"{n:4d} {tau_star:10.6f} {1 / n:10.6f} {u_star:8.5f}  "
          f"W_0={designed.thresholds[0]:<6d} W_K={designed.thresholds[-1]:<6d} "
          f"achieved tau={achieved.tau:.6f}")
print()
print("tau* always sits below 1/N, and the integer ladder lands within one")
print("W_0 quantization step of it.")
