"""Command-line surface: computations, reports, verify suites.

Exit codes: 0 success, 1 verify-suite failure, 2 usage error, 3 budget cap.
All numeric inputs are decimal; angles are radians.
"""

from __future__ import annotations

import argparse
import sys

from .arith_curves import CurveParams, Interval, ap_table, curve_ap, primes_in_window
from .classnumbers import HurwitzTable, hurwitz_table
from .errors import BudgetError
from .hecke import hecke_trace, trace_average_probe, traces_via_birch
from .family_averages import s0_brute, s0_formula
from .moments_engine import (
    Hypothesis2Probe,
    MomentPlan,
    Profile,
    almost_all_report,
    clt_histogram,
    family_moments,
    hypothesis2_probe,
)
from .st_approx import CoeffMode, coeffs_to_csv, exact_st_coeffs, parseval_check, sandwich_coeffs
from .verify import SUITES, mass_identity_check, report, route_agreement_checks, run_suites, soft_diagnostics


def _interval_from_args(args) -> Interval:
    return Interval(alpha=args.alpha, beta=args.beta)


def _cmd_primes(args) -> int:
    window = primes_in_window(args.x)
    print(window.count)
    if args.list:
        print(" ".join(str(p) for p in window.primes))
    return 0


def _cmd_ap(args) -> int:
    if args.a is not None and args.b is not None:
        tv = curve_ap(args.p, CurveParams(args.a, args.b))
        print(f"{tv.kind.value} {tv.ap}")
        return 0
    if not args.table:
        print("need --a and --b, or --table", file=sys.stderr)
        return 2
    table = ap_table(args.p)
    good = int(table.good.sum())
    print(f"p={args.p} good={good} bad={args.p * args.p - good} trace_sum={int(table.ap[table.good].sum())}")
    return 0


def _cmd_hurwitz(args) -> int:
    table = HurwitzTable(args.max_n, hurwitz_table(args.max_n).twelve_h[:args.max_n + 1])  # rows N <= max_n
    if args.out:
        table.to_csv(args.out)
        print(f"wrote {args.out}")
    else:
        for n in range(3, args.max_n + 1):
            if n % 4 in (0, 3):
                print(f"{n} {table.twelve(n)}")
    return 0


def _cmd_eichler_check(args) -> int:
    return 0 if report([mass_identity_check(args.max_p)]) else 1


def _cmd_trace(args) -> int:
    if args.method == "miller":
        rec = hecke_trace(args.k, args.p)
    else:
        if args.k % 2 or args.k < 4:
            print("the class-number route needs even weight >= 4", file=sys.stderr)
            return 2
        rec = traces_via_birch(args.p, (args.k - 2) // 2)[-1]
    print(rec.trace)
    return 0


def _cmd_birch_check(args) -> int:
    return 0 if report(route_agreement_checks(args.p_max, 2 * args.j_max + 2)) else 1


def _cmd_s0(args) -> int:
    brute = s0_brute(args.p, args.m)
    formula = s0_formula(args.p, args.m)
    print(f"brute={brute!r} formula={formula!r} gap={abs(brute - formula):.3e}")
    return 0


def _cmd_bs(args) -> int:
    interval = _interval_from_args(args)
    if args.mode == "exact":
        coeffs = exact_st_coeffs(interval, args.M)
    else:
        side = CoeffMode.MAJORANT if args.mode == "major" else CoeffMode.MINORANT
        coeffs = sandwich_coeffs(interval, args.M, side)
    if args.out:
        coeffs_to_csv(coeffs, args.out)
        print(f"wrote {args.out}")
    print(f"mode={coeffs.mode.value} M={coeffs.M} Z={coeffs.z!r} const={coeffs.const_term!r} cert={coeffs.cert!r}")
    return 0


def _cmd_parseval(args) -> int:
    res = parseval_check(_interval_from_args(args), args.M)
    print(f"Z={res.z!r} mu_term={res.mu_term!r} gap={res.gap:.6e} bound={res.bound:.6e}")
    return 0 if res.gap <= res.bound else 1


def _plan_from_args(args, t_list=None) -> MomentPlan:
    if args.A < 1 or args.B < 1:
        raise ValueError(f"the box |a| <= A, |b| <= B needs A >= 1 and B >= 1, got A = {args.A}, B = {args.B}")
    return MomentPlan(
        x=args.x,
        A=args.A,
        B=args.B,
        interval=_interval_from_args(args),
        t_list=tuple(t_list or getattr(args, "t", None) or (1, 2)),
        M=getattr(args, "M", None),
        profile=Profile(args.profile),
        c=args.c,
    )


def _cmd_moments(args) -> int:
    plan = _plan_from_args(args)
    report = family_moments(plan)
    for r in report.results:
        ratio = "n/a" if r.ratio is None else f"{r.ratio:.4f}"
        print(f"t={r.t} empirical={r.empirical!r} main={r.main_term!r} ratio={ratio}")
    if args.out:
        report.write_json(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_clt(args) -> int:
    plan = _plan_from_args(args, t_list=(2,))
    sample = clt_histogram(plan, bins=args.bins)
    print(f"n={sample.size} mean={sample.mean:.4f} var={sample.variance:.4f} KS={sample.ks:.4f}")
    if args.out:
        sample.write_csv(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_almost_all(args) -> int:
    plan = _plan_from_args(args, t_list=(2,))
    rep = almost_all_report(plan, args.y)
    print(
        f"threshold={rep.threshold:.4f} exceptions={rep.exceptions}/{rep.total} "
        f"fraction={rep.fraction:.5f} y^-2={rep.y_power:.5f} "
        f"exponent_fit mean={rep.exponent_fit_mean:.3f} max={rep.exponent_fit_max:.3f}"
    )
    return 0


def _cmd_probe(args) -> int:
    if args.which == "hyp1":
        res = trace_average_probe(args.K, args.x)
        print(f"value={res.value!r} scale={res.scale!r} ratio={res.ratio!r}")
    else:
        probe: Hypothesis2Probe = hypothesis2_probe(
            CurveParams(args.a, args.b), args.m, args.y, args.x, args.c
        )
        print(f"value={probe.value!r} scale={probe.scale!r} ratio={probe.ratio!r}")
    return 0


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = run_suites(names)
    if args.soft:
        diag = soft_diagnostics()
        for k, v in diag.items():
            print(f"diagnostic {k} = {v}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="stmoments", description=__doc__)
    parser.add_argument("--profile", choices=[p.value for p in Profile], default="unconditional")
    parser.add_argument("--c", type=float, default=1.0, help="log-power knob used in reported scalings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("primes", help="count primes in (x/2, x]")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_primes)

    p = sub.add_parser("ap", help="trace of one curve, or a full residue grid")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--table", action="store_true")
    p.set_defaults(func=_cmd_ap)

    p = sub.add_parser("hurwitz", help="class-number table")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out", help="CSV of 12 H(N) for N = 1..max_n, 0 at N = 1, 2 mod 4")
    p.set_defaults(func=_cmd_hurwitz)

    p = sub.add_parser("eichler-check", help="mass identity sweep")
    p.add_argument("--max-p", type=int, required=True)
    p.set_defaults(func=_cmd_eichler_check)

    p = sub.add_parser("trace", help="Hecke operator trace")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--method", choices=["miller", "birch"], default="miller")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("birch-check", help="trace route agreement sweep")
    p.add_argument("--p-max", type=int, required=True)
    p.add_argument("--j-max", type=int, required=True)
    p.set_defaults(func=_cmd_birch_check)

    p = sub.add_parser("s0", help="grid average vs trace formula at one prime power")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_s0)

    p = sub.add_parser("bs", help="interval coefficient sets")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "major", "minor"], default="exact")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bs)

    p = sub.add_parser("parseval", help="coefficient square sum vs mu - mu^2")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--M", type=int, required=True)
    p.set_defaults(func=_cmd_parseval)

    box = argparse.ArgumentParser(add_help=False)  # x, the family box and the interval
    for name, kind in (("--x", float), ("--A", int), ("--B", int), ("--alpha", float), ("--beta", float)):
        box.add_argument(name, type=kind, required=True)

    p = sub.add_parser("moments", parents=[box], help="family moments over a box")
    p.add_argument("--t", type=int, nargs="+", default=[1, 2])
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("clt", parents=[box], help="standardized error sample and KS distance")
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_clt)

    p = sub.add_parser("almost-all", parents=[box], help="exception counts at level y")
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(func=_cmd_almost_all)

    p = sub.add_parser("probe", help="averaged-trace and prime-power-sum diagnostics")
    p.add_argument("which", choices=["hyp1", "hyp2"])
    p.add_argument("--K", type=int, default=20)
    p.add_argument("--x", type=float, default=100.0)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--y", type=float, default=0.0)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("verify", help="run exact-identity suites")
    p.add_argument("--suite", choices=list(SUITES) + ["all"], default="all")
    p.add_argument("--soft", action="store_true", help="also print warn-only family diagnostics")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
