"""Fig. 11(a-b) — lb_value traces for total_traffic.

Paper: the total_traffic policy shows the same pattern as
total_request: the candidate experiencing a millibottleneck has the
lowest lb_value (here, accumulated request+response bytes), so all
requests are sent to it until the millibottleneck resolves.

Shape to reproduce: identical qualitative pattern under the byte-based
lb_value.
"""

from test_fig10_lbvalue_total_request import check_lb_pattern


def test_fig11_lb_values_total_traffic(benchmark):
    # The paper only details the recovery peak for total_request
    # (Fig. 10); for total_traffic it asserts the same stall-time
    # pattern ("the candidate experiencing a millibottleneck has the
    # lowest lb_value") without discussing recovery details.
    result, record = check_lb_pattern(
        benchmark, "original_total_traffic", "fig11 total_traffic",
        check_recovery_peak=False)
    # The instability materialises as drops and VLRT, as in Fig. 7.
    assert result.metrics.drops > 0
    assert result.stats().vlrt_count > 0
