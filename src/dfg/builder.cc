#include "dfg/builder.h"

#include "common/log.h"
#include "verify/structural.h"

namespace nupea
{

Builder::Builder() = default;

Graph
Builder::takeGraph()
{
    if (!scopes_.empty()) {
        fatal("takeGraph() with ", scopes_.size(), " loop scope(s) "
              "still open; it must run after whileLoop/forLoop return, "
              "not inside a body callback");
    }
    DiagnosticReport report;
    checkStructure(graph_, report);
    if (report.hasErrors()) {
        fatal("malformed graph: ", report.errorCount(),
              " structural error(s)\n", report.renderText());
    }
    return std::move(graph_);
}

NodeId
Builder::addNode(Op op, int ninputs, std::string name)
{
    NodeId id = graph_.addNode(op, ninputs, std::move(name));
    Node &n = graph_.node(id);
    if (!scopes_.empty()) {
        n.loop = scopes_.back().loop;
        n.loopDepth = static_cast<std::uint8_t>(scopes_.size());
    }
    return id;
}

Builder::Value
Builder::wrap(NodeId id) const
{
    Value v;
    v.id = id;
    v.scope = scopes_.empty() ? 0 : scopes_.back().token;
    return v;
}

std::size_t
Builder::findScope(std::uint32_t token) const
{
    for (std::size_t i = 0; i < scopes_.size(); ++i) {
        if (scopes_[i].token == token)
            return i;
    }
    fatal("value from a closed loop scope used outside that loop");
}

NodeId
Builder::repeatInto(Scope &scope, NodeId src, bool gated)
{
    auto key = std::make_pair(src, gated);
    auto it = scope.repeaters.find(key);
    if (it != scope.repeaters.end())
        return it->second;

    Op op = gated ? Op::InvariantGated : Op::Invariant;
    // Bypass addNode()'s scope stamping: the repeater belongs to
    // `scope`, which may not be the innermost one.
    NodeId rep = graph_.addNode(op, 2);
    graph_.connect(rep, 0, src);
    if (scope.ctrl != kInvalidId)
        graph_.connect(rep, 1, scope.ctrl);
    else
        scope.pendingCtrl.push_back(rep);

    Node &n = graph_.node(rep);
    n.loop = scope.loop;
    // Depth = 1-based index of the scope on the stack.
    std::size_t idx = findScope(scope.token);
    n.loopDepth = static_cast<std::uint8_t>(idx + 1);

    scope.repeaters.emplace(key, rep);
    return rep;
}

NodeId
Builder::use(Value v)
{
    if (!v.valid())
        fatal("use of an invalid (default-constructed) Value");
    if (scopes_.empty()) {
        if (v.scope != 0)
            fatal("loop-local value used at top level");
        return v.id;
    }
    if (v.scope == scopes_.back().token)
        return v.id;

    // Find the scope the value belongs to; it must be an ancestor.
    std::size_t from; // first scope index the value must be carried into
    if (v.scope == 0) {
        from = 0;
    } else {
        from = findScope(v.scope) + 1;
        if (from == scopes_.size() + 1)
            panic("scope bookkeeping error");
    }

    // Repeat across every crossed level. Intermediate levels consume
    // the value once per their body iteration (gated); the innermost
    // level's flavor depends on whether we are building its condition
    // (k+1 tokens) or its body (k tokens).
    NodeId cur = v.id;
    for (std::size_t i = from; i < scopes_.size(); ++i) {
        bool innermost = (i + 1 == scopes_.size());
        bool gated = !(innermost && scopes_[i].inCond);
        cur = repeatInto(scopes_[i], cur, gated);
    }
    return cur;
}

Builder::Value
Builder::source(Word value, std::string name)
{
    // Sources emit exactly once, at program start, regardless of
    // where in the program text they are created: they are program
    // arguments and always live at top-level scope. use() inserts
    // repeaters when they are consumed inside loops.
    NodeId id = graph_.addNode(Op::Source, 0, std::move(name));
    graph_.node(id).imm = value;
    Value v;
    v.id = id;
    v.scope = 0;
    return v;
}

Builder::Value
Builder::binary(Op op, Value a, Value b, std::string name)
{
    if (!opIsBinaryArith(op))
        fatal("binary() with non-binary op ", opName(op));
    NodeId an = use(a);
    NodeId bn = use(b);
    NodeId id = addNode(op, 2, std::move(name));
    graph_.connect(id, 0, an);
    graph_.connect(id, 1, bn);
    return wrap(id);
}

Builder::Value
Builder::binary(Op op, Value a, Word b, std::string name)
{
    if (!opIsBinaryArith(op))
        fatal("binary() with non-binary op ", opName(op));
    NodeId an = use(a);
    NodeId id = addNode(op, 2, std::move(name));
    graph_.connect(id, 0, an);
    graph_.setImm(id, 1, b);
    return wrap(id);
}

Builder::Value
Builder::binary(Op op, Word a, Value b, std::string name)
{
    if (!opIsBinaryArith(op))
        fatal("binary() with non-binary op ", opName(op));
    NodeId bn = use(b);
    NodeId id = addNode(op, 2, std::move(name));
    graph_.setImm(id, 0, a);
    graph_.connect(id, 1, bn);
    return wrap(id);
}

Builder::Value
Builder::neg(Value a, std::string name)
{
    NodeId an = use(a);
    NodeId id = addNode(Op::Neg, 1, std::move(name));
    graph_.connect(id, 0, an);
    return wrap(id);
}

Builder::Value
Builder::bnot(Value a, std::string name)
{
    NodeId an = use(a);
    NodeId id = addNode(Op::Not, 1, std::move(name));
    graph_.connect(id, 0, an);
    return wrap(id);
}

Builder::Value
Builder::select(Value ctrl, Value a, Value b, std::string name)
{
    NodeId cn = use(ctrl);
    NodeId an = use(a);
    NodeId bn = use(b);
    NodeId id = addNode(Op::Select, 3, std::move(name));
    graph_.connect(id, 0, cn);
    graph_.connect(id, 1, an);
    graph_.connect(id, 2, bn);
    return wrap(id);
}

Builder::Value
Builder::load(Value addr, Value ord, std::string name)
{
    NodeId an = use(addr);
    NodeId on = ord.valid() ? use(ord) : kInvalidId;
    NodeId id = addNode(Op::Load, ord.valid() ? 2 : 1, std::move(name));
    graph_.connect(id, 0, an);
    if (on != kInvalidId)
        graph_.connect(id, 1, on);
    return wrap(id);
}

Builder::Value
Builder::store(Value addr, Value val, Value ord, std::string name)
{
    NodeId an = use(addr);
    NodeId vn = use(val);
    NodeId on = ord.valid() ? use(ord) : kInvalidId;
    NodeId id = addNode(Op::Store, ord.valid() ? 3 : 2, std::move(name));
    graph_.connect(id, 0, an);
    graph_.connect(id, 1, vn);
    if (on != kInvalidId)
        graph_.connect(id, 2, on);
    return wrap(id);
}

NodeId
Builder::sink(Value v, std::string name)
{
    NodeId vn = use(v);
    NodeId id = addNode(Op::Sink, 1, std::move(name));
    graph_.connect(id, 0, vn);
    return id;
}

std::vector<Builder::Value>
Builder::whileLoop(const std::vector<Value> &inits, const CondFn &cond,
                   const BodyFn &body, std::string name)
{
    if (inits.empty())
        fatal("a loop needs at least one carried value");

    // Resolve inits at the enclosing scope's rate.
    std::vector<NodeId> init_ids;
    init_ids.reserve(inits.size());
    for (const Value &v : inits)
        init_ids.push_back(use(v));

    std::uint32_t parent_scope =
        scopes_.empty() ? 0 : scopes_.back().token;
    LoopId parent_loop =
        scopes_.empty() ? kInvalidId : scopes_.back().loop;

    Scope scope;
    scope.token = nextScopeToken_++;
    scope.loop = graph_.addLoop(parent_loop);
    scopes_.push_back(std::move(scope));

    // Carried-value merges; back (1) and ctrl (2) wired later.
    std::vector<NodeId> merges;
    std::vector<Value> merge_vals;
    merges.reserve(inits.size());
    for (std::size_t i = 0; i < inits.size(); ++i) {
        NodeId m = addNode(Op::LoopMerge, 3,
                           name.empty()
                               ? ""
                               : formatMessage(name, ".phi", i));
        graph_.connect(m, 0, init_ids[i]);
        merges.push_back(m);
        merge_vals.push_back(wrap(m));
    }

    // Build the condition; it may use() outer values (k+1 tokens).
    Value c = cond(*this, merge_vals);
    if (c.scope != scopes_.back().token) {
        fatal("loop condition must depend on a carried value; an "
              "invariant condition would never terminate");
    }
    NodeId c_id = use(c);

    // Connect ctrl of merges and of pending repeaters.
    Scope &top = scopes_.back();
    for (NodeId m : merges)
        graph_.connect(m, 2, c_id);
    for (NodeId rep : top.pendingCtrl)
        graph_.connect(rep, 1, c_id);
    top.pendingCtrl.clear();
    top.ctrl = c_id;
    top.inCond = false;

    // Steer carried values into the body (true) or out (false).
    std::vector<Value> body_in;
    std::vector<Value> exits;
    body_in.reserve(merges.size());
    exits.reserve(merges.size());
    for (std::size_t i = 0; i < merges.size(); ++i) {
        NodeId st = addNode(Op::SteerTrue, 2);
        graph_.connect(st, 0, c_id);
        graph_.connect(st, 1, merges[i]);
        body_in.push_back(wrap(st));

        NodeId se = addNode(Op::SteerFalse, 2);
        graph_.connect(se, 0, c_id);
        graph_.connect(se, 1, merges[i]);
        Value exit_val;
        exit_val.id = se;
        exit_val.scope = parent_scope; // exits live in the parent
        exits.push_back(exit_val);
    }

    // Build the body and close the back edges.
    std::vector<Value> next = body(*this, body_in);
    if (next.size() != merges.size()) {
        fatal("loop body returned ", next.size(), " values for ",
              merges.size(), " carried");
    }
    for (std::size_t i = 0; i < merges.size(); ++i)
        graph_.connect(merges[i], 1, use(next[i]));

    scopes_.pop_back();
    return exits;
}

std::vector<Builder::Value>
Builder::forLoop(Value begin, Value end, Word step,
                 const std::vector<Value> &carried, const ForBodyFn &body,
                 std::string name)
{
    std::vector<Value> inits;
    inits.push_back(begin);
    inits.insert(inits.end(), carried.begin(), carried.end());

    auto exits = whileLoop(
        inits,
        [&](Builder &b, const std::vector<Value> &cur) {
            return b.lt(cur[0], end);
        },
        [&](Builder &b, const std::vector<Value> &cur) {
            std::vector<Value> extra(cur.begin() + 1, cur.end());
            std::vector<Value> next = body(b, cur[0], extra);
            if (next.size() != carried.size()) {
                fatal("for-loop body returned ", next.size(),
                      " values for ", carried.size(), " carried");
            }
            std::vector<Value> out;
            out.push_back(b.add(cur[0], step));
            out.insert(out.end(), next.begin(), next.end());
            return out;
        },
        std::move(name));

    // Drop the induction variable's exit.
    return {exits.begin() + 1, exits.end()};
}

} // namespace nupea
