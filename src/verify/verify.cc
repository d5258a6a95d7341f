#include "verify/verify.h"

namespace nupea
{

namespace
{

/** Rate analysis indexes through edges; refuse graphs whose wiring
 *  the structural pass proved unsound. */
bool
wiringSound(const DiagnosticReport &report)
{
    return !report.has(DiagId::StructBadOpcode) &&
           !report.has(DiagId::StructArity) &&
           !report.has(DiagId::StructPortBadRef);
}

} // namespace

DiagnosticReport
verifyGraph(const Graph &graph)
{
    DiagnosticReport report;
    checkStructure(graph, report);
    if (wiringSound(report))
        checkTokenRates(graph, report);
    return report;
}

DiagnosticReport
verifyCompiled(const Graph &graph, const Topology &topo,
               const Placement &placement, const RouteResult &route)
{
    DiagnosticReport report = verifyGraph(graph);
    if (wiringSound(report)) {
        checkPlacement(graph, topo, placement, report);
        checkRouting(graph, topo, placement, route, report);
    }
    return report;
}

DiagnosticReport
verifyCompiled(const Graph &graph, const Topology &topo,
               const PnrResult &pnr)
{
    return verifyCompiled(graph, topo, pnr.placement, pnr.route);
}

} // namespace nupea
