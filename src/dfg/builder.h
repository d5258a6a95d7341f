/**
 * @file
 * Structured dataflow-graph builder: the front-end substitute for
 * effcc's C lowering.
 *
 * Programs are expressed as straight-line dataflow plus structured
 * while/for loops. The builder emits the steering-control form the
 * paper describes (Sec. 4.1/5): each loop-carried value becomes a
 * decider-driven LoopMerge; the loop condition steers values back
 * around the loop or out of it; loop-invariant values consumed inside
 * a loop are fed through Invariant/InvariantGated repeater nodes,
 * inserted automatically when a value crosses a loop boundary.
 *
 * Example — sum the first n integers:
 * @code
 *   Builder b;
 *   auto n = b.source(10, "n");
 *   auto r = b.forLoop(b.source(0), n, 1, {b.source(0)},
 *       [&](Builder &b, Builder::Value i, std::vector<Builder::Value> c) {
 *           return std::vector<Builder::Value>{b.add(c[0], i)};
 *       });
 *   b.sink(r[1], "sum");
 * @endcode
 */

#ifndef NUPEA_DFG_BUILDER_H
#define NUPEA_DFG_BUILDER_H

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dfg/graph.h"

namespace nupea
{

/**
 * Incrementally builds a Graph. Loop scoping rules:
 *  - a Value may be used in the scope that created it, or in any loop
 *    nested (transitively) inside that scope — repeaters are inserted
 *    automatically;
 *  - values created inside a loop are dead once the loop closes; only
 *    the loop's exit values (returned by whileLoop/forLoop) survive;
 *  - do not consume a loop's condition value inside its own body.
 */
class Builder
{
  public:
    /** Opaque handle to a node output within a particular scope. */
    struct Value
    {
        NodeId id;
        std::uint32_t scope; ///< scope token; 0 = top level

        Value() : id(kInvalidId), scope(0) {}
        Value(NodeId node, std::uint32_t scope_token)
            : id(node), scope(scope_token)
        {}

        bool valid() const { return id != kInvalidId; }
    };

    Builder();

    /** The graph under construction (also usable after building). */
    Graph &graph() { return graph_; }
    const Graph &graph() const { return graph_; }

    /**
     * Move the finished graph out of the builder. Fatals if a loop
     * scope is still open (takeGraph() inside a body callback) or if
     * the verifier's structural rules (verify/structural.h) find an
     * error; the message is the rendered report, so builder misuse
     * surfaces here as a located, catchable FatalError rather than
     * at simulation time. Token-rate rules are left to verifyGraph().
     */
    Graph takeGraph();

    /** A program argument: emits `value` once at program start. */
    Value source(Word value, std::string name = "");

    /** @{ Binary arithmetic / comparison. */
    Value binary(Op op, Value a, Value b, std::string name = "");
    Value binary(Op op, Value a, Word b, std::string name = "");
    Value binary(Op op, Word a, Value b, std::string name = "");

    template <typename A, typename B>
    Value add(A a, B b) { return binary(Op::Add, a, b); }
    template <typename A, typename B>
    Value sub(A a, B b) { return binary(Op::Sub, a, b); }
    template <typename A, typename B>
    Value mul(A a, B b) { return binary(Op::Mul, a, b); }
    template <typename A, typename B>
    Value div(A a, B b) { return binary(Op::Div, a, b); }
    template <typename A, typename B>
    Value rem(A a, B b) { return binary(Op::Rem, a, b); }
    template <typename A, typename B>
    Value shl(A a, B b) { return binary(Op::Shl, a, b); }
    template <typename A, typename B>
    Value shr(A a, B b) { return binary(Op::Shr, a, b); }
    template <typename A, typename B>
    Value band(A a, B b) { return binary(Op::And, a, b); }
    template <typename A, typename B>
    Value bor(A a, B b) { return binary(Op::Or, a, b); }
    template <typename A, typename B>
    Value bxor(A a, B b) { return binary(Op::Xor, a, b); }
    template <typename A, typename B>
    Value min(A a, B b) { return binary(Op::Min, a, b); }
    template <typename A, typename B>
    Value max(A a, B b) { return binary(Op::Max, a, b); }
    template <typename A, typename B>
    Value eq(A a, B b) { return binary(Op::Eq, a, b); }
    template <typename A, typename B>
    Value ne(A a, B b) { return binary(Op::Ne, a, b); }
    template <typename A, typename B>
    Value lt(A a, B b) { return binary(Op::Lt, a, b); }
    template <typename A, typename B>
    Value le(A a, B b) { return binary(Op::Le, a, b); }
    template <typename A, typename B>
    Value gt(A a, B b) { return binary(Op::Gt, a, b); }
    template <typename A, typename B>
    Value ge(A a, B b) { return binary(Op::Ge, a, b); }
    /** @} */

    /** Unary negate / bitwise-not. */
    Value neg(Value a, std::string name = "");
    Value bnot(Value a, std::string name = "");

    /** out = ctrl ? a : b (arith select, not a steer). */
    Value select(Value ctrl, Value a, Value b, std::string name = "");

    /**
     * Word load from a byte address. Pass `ord` to order this load
     * after a prior memory operation's output token.
     */
    Value load(Value addr, Value ord = Value(), std::string name = "");

    /** Word store; returns the ordering ("done") token. */
    Value store(Value addr, Value val, Value ord = Value(),
                std::string name = "");

    /** Terminal consumer; returns the sink's node id for inspection. */
    NodeId sink(Value v, std::string name = "");

    /** Builds the loop condition from the current carried values. */
    using CondFn = std::function<Value(Builder &,
                                       const std::vector<Value> &)>;

    /** Builds the loop body; returns next iteration's carried values. */
    using BodyFn = std::function<std::vector<Value>(
        Builder &, const std::vector<Value> &)>;

    /**
     * Structured while loop.
     *
     * @param inits initial carried values (consumed once per loop
     *              invocation, at the enclosing scope's rate)
     * @param cond  receives current carried values, returns a boolean
     * @param body  receives steered carried values, returns the same
     *              number of next-iteration values
     * @return loop exit values (the carried values when cond failed),
     *         live in the enclosing scope
     */
    std::vector<Value> whileLoop(const std::vector<Value> &inits,
                                 const CondFn &cond, const BodyFn &body,
                                 std::string name = "");

    /** Body callback for forLoop: (builder, i, carried) -> next. */
    using ForBodyFn = std::function<std::vector<Value>(
        Builder &, Value, const std::vector<Value> &)>;

    /**
     * Counted loop: for (i = begin; i < end; i += step). Returns the
     * exit values of the extra carried values (the final induction
     * value is dropped).
     */
    std::vector<Value> forLoop(Value begin, Value end, Word step,
                               const std::vector<Value> &carried,
                               const ForBodyFn &body,
                               std::string name = "");

    /**
     * Resolve a value for consumption at the current scope's firing
     * rate, inserting repeaters for crossed loop levels. Exposed for
     * advanced graph construction; normal op helpers call it
     * implicitly.
     */
    NodeId use(Value v);

    /** Depth of the current loop-scope stack (0 = top level). */
    std::size_t scopeDepth() const { return scopes_.size(); }

  private:
    struct Scope
    {
        std::uint32_t token;  ///< unique scope id
        LoopId loop;
        NodeId ctrl = kInvalidId; ///< cond node once known
        bool inCond = true;
        /** Invariant nodes awaiting their ctrl connection. */
        std::vector<NodeId> pendingCtrl;
        /** Repeater cache: (source node, gated?) -> repeater node. */
        std::map<std::pair<NodeId, bool>, NodeId> repeaters;
    };

    NodeId addNode(Op op, int ninputs, std::string name = "");
    Value wrap(NodeId id) const;
    NodeId repeatInto(Scope &scope, NodeId src, bool gated);

    /** Find stack index of a scope token; fatal if not live. */
    std::size_t findScope(std::uint32_t token) const;

    Graph graph_;
    std::vector<Scope> scopes_;
    std::uint32_t nextScopeToken_ = 1;
};

} // namespace nupea

#endif // NUPEA_DFG_BUILDER_H
