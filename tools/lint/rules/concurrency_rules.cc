/**
 * @file
 * Token-level concurrency/determinism rules (pass 3). These defend
 * the DESIGN.md §6 contract — results bit-identical at every thread
 * count — at lint time, before a run ever reaches the runtime
 * `runHash` audit or TSan:
 *
 *   parallel-capture-mutation  A parallelFor/parallelForEach lambda
 *                              with by-reference capture writes to a
 *                              captured variable that is neither
 *                              body-local nor a subscripted output
 *                              slot (per-task slots like `out[i] = x`
 *                              are the sanctioned pattern). A body
 *                              that takes a lock or uses atomics is
 *                              assumed to know what it is doing.
 *   parallel-fp-reduction      The same detection, classified as a
 *                              reduction (`+=`, `x = x + v`, or a
 *                              std::accumulate/std::reduce feeding a
 *                              captured target): thread-order FP
 *                              accumulation is nondeterministic; keep
 *                              per-task partials and merge them in
 *                              task-index order.
 *   mutable-global-state       Non-const static/global mutable data
 *                              in src/ outside the allowlisted
 *                              singleton homes (common/parallel, the
 *                              obs registry). Globals are invisible
 *                              inputs that break run replayability.
 *   wall-clock                 Wall-clock / std::this_thread use
 *                              outside bench/ and src/obs. Simulated
 *                              time comes from the pipeline; timing
 *                              instrumentation goes through
 *                              obs::ScopedTimer.
 *
 * The write analysis is a documented heuristic, not a dataflow
 * engine: named lambdas defined outside the parallelFor call and
 * mutation through member function calls are out of scope (TSan and
 * the determinism audit stay the runtime backstop).
 */

#include <regex>
#include <set>

#include "lint/rule.hh"

namespace boreas::lint
{

namespace
{

// --------------------------------------------------------------- //
// wall-clock
// --------------------------------------------------------------- //

bool
isObsModule(const std::string &path)
{
    return pathContains(path, "src/obs") ||
        pathContains(path, "obs/");
}

void
checkWallClock(const FileContext &ctx, std::vector<Violation> &out)
{
    if (ctx.zone == Zone::Bench)
        return;
    if (isObsModule(ctx.path))
        return;
    static const std::regex kClock(
        R"((\bstd::chrono::(steady_clock|system_clock|high_resolution_clock)\b|\bstd::this_thread\b|\bclock_gettime\s*\(|\bgettimeofday\s*\())");
    const auto &lines = ctx.lexed.lines;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (!std::regex_search(lines[i].code, kClock))
            continue;
        if (allows(ctx, i, "wall-clock"))
            continue;
        out.push_back(
            {ctx.path, static_cast<int>(i + 1), "wall-clock",
             "wall-clock / std::this_thread outside bench/ and "
             "src/obs; simulated time comes from the pipeline and "
             "timing goes through obs::ScopedTimer so runs stay "
             "replayable"});
    }
}

// --------------------------------------------------------------- //
// mutable-global-state
// --------------------------------------------------------------- //

/** Files allowed to own process-wide mutable state: the global
 *  thread-pool singleton and the obs registry/shards (their merge
 *  discipline is documented in DESIGN.md §8). */
bool
isGlobalStateAllowlisted(const std::string &path)
{
    return pathContains(path, "common/parallel") ||
        pathContains(path, "obs/metrics");
}

bool
isKeyword(const std::string &t)
{
    static const std::set<std::string> kKeywords = {
        "if",     "else",    "for",      "while",  "do",
        "switch", "case",    "return",   "break",  "continue",
        "goto",   "new",     "delete",   "throw",  "sizeof",
        "typedef","using",   "operator", "co_return"};
    return kKeywords.count(t) != 0;
}

/** Identifiers whose presence marks a declaration as synchronized
 *  state rather than a naked global (sync primitives are not a
 *  determinism hazard by themselves). */
bool
isSyncToken(const std::string &t)
{
    return t == "mutex" || t == "shared_mutex" || t == "atomic" ||
        t == "atomic_flag" || t == "once_flag" ||
        t == "condition_variable" || t == "condition_variable_any";
}

/** Scope kinds for the brace tracker. */
enum class ScopeKind { Namespace, Class, Block };

void
checkMutableGlobalState(const FileContext &ctx,
                        std::vector<Violation> &out)
{
    if (!srcLike(ctx.zone))
        return;
    if (isGlobalStateAllowlisted(ctx.path))
        return;

    const auto &toks = ctx.lexed.tokens;
    std::vector<ScopeKind> scopes;

    // Pending-statement token window since the last ; { or } at the
    // current nesting level.
    size_t stmt_begin = 0;

    auto atNamespaceScope = [&] {
        for (ScopeKind k : scopes) {
            if (k != ScopeKind::Namespace)
                return false;
        }
        return true;
    };
    auto atClassScope = [&] {
        return !scopes.empty() && scopes.back() == ScopeKind::Class;
    };

    auto flagStatement = [&](size_t begin, size_t end) {
        // `begin..end` (exclusive of the terminating ';') is a
        // candidate declaration. Skip anything that is not plainly a
        // mutable data definition.
        bool has_static = false, has_thread_local = false;
        bool has_const = false, has_paren = false, skip = false;
        bool has_sync = false, has_assign = false;
        size_t assign_at = end;
        for (size_t k = begin; k < end; ++k) {
            const Token &t = toks[k];
            if (t.kind == TokenKind::Punct) {
                if (t.text == "(")
                    has_paren = true;
                else if (t.text == "=" && assign_at == end) {
                    has_assign = true;
                    assign_at = k;
                }
                continue;
            }
            if (t.kind != TokenKind::Identifier)
                continue;
            // Only tokens left of the initializer describe the
            // declaration itself.
            if (k < assign_at || !has_assign) {
                if (t.text == "static")
                    has_static = true;
                else if (t.text == "thread_local")
                    has_thread_local = true;
                else if (t.text == "const" || t.text == "constexpr" ||
                         t.text == "consteval")
                    has_const = true;
                else if (isSyncToken(t.text))
                    has_sync = true;
                else if (t.text == "namespace" || t.text == "using" ||
                         t.text == "typedef" || t.text == "friend" ||
                         t.text == "template" || t.text == "extern" ||
                         t.text == "struct" || t.text == "class" ||
                         t.text == "enum" || t.text == "union" ||
                         t.text == "concept" || t.text == "requires" ||
                         t.text == "static_assert" ||
                         t.text == "public" || t.text == "private" ||
                         t.text == "protected" || t.text == "typename")
                    skip = true;
            }
        }
        if (skip || has_const || has_sync || begin >= end)
            return;
        // A '(' before any '=' means a function declaration or a
        // paren-initializer; both are skipped (documented heuristic).
        if (has_paren &&
            (!has_assign ||
             [&] {
                 for (size_t k = begin; k < assign_at; ++k) {
                     if (toks[k].kind == TokenKind::Punct &&
                         toks[k].text == "(")
                         return true;
                 }
                 return false;
             }()))
            return;

        const bool namespace_scope = atNamespaceScope();
        const bool class_scope = atClassScope();
        // Namespace scope: any surviving data definition is mutable
        // global state, `static` keyword or not. Class/block scope:
        // only static / thread_local storage is process-shared.
        const bool shared = namespace_scope ||
            ((class_scope || !scopes.empty()) &&
             (has_static || has_thread_local));
        if (!shared)
            return;
        const size_t line_idx =
            static_cast<size_t>(toks[begin].line - 1);
        if (allows(ctx, line_idx, "mutable-global-state"))
            return;
        out.push_back(
            {ctx.path, toks[begin].line, "mutable-global-state",
             "non-const static/global mutable state outside the "
             "allowlisted singletons (common/parallel, obs); shared "
             "mutable state is an invisible input that breaks run "
             "replayability — pass state explicitly or justify with "
             "an allow()"});
    };

    // Scope kind of a '{' at token k: look back over the pending
    // statement for namespace/class keywords.
    auto openerKind = [&](size_t brace) {
        bool saw_paren = false;
        for (size_t k = stmt_begin; k < brace; ++k) {
            const Token &t = toks[k];
            if (t.kind == TokenKind::Punct && t.text == "(")
                saw_paren = true;
            if (t.kind != TokenKind::Identifier)
                continue;
            if (t.text == "namespace")
                return ScopeKind::Namespace;
            if ((t.text == "class" || t.text == "struct" ||
                 t.text == "union" || t.text == "enum") &&
                !saw_paren)
                return ScopeKind::Class;
        }
        return ScopeKind::Block;
    };

    int paren_depth = 0;
    bool stmt_has_assign = false; // '=' at paren depth 0 in the stmt

    for (size_t k = 0; k < toks.size(); ++k) {
        const Token &t = toks[k];
        if (t.kind != TokenKind::Punct) {
            continue;
        }
        if (t.text == "(") {
            ++paren_depth;
        } else if (t.text == ")") {
            if (paren_depth > 0)
                --paren_depth;
        } else if (t.text == "=" && paren_depth == 0) {
            stmt_has_assign = true;
        }
        if (t.text == "{") {
            // A brace inside parens (lambda argument, default-arg
            // `= {}`), after a top-level '=' (brace initializer), or
            // directly after a non-keyword identifier (`int x{0};`)
            // is part of the statement, not a scope: jump over it so
            // the declaration window stays intact. Trailing-return
            // functions (`-> T {`) also end in an identifier, so an
            // `->` in the pending statement vetoes the init reading.
            bool init_after_ident = k > 0 &&
                toks[k - 1].kind == TokenKind::Identifier &&
                !isKeyword(toks[k - 1].text) &&
                openerKind(k) == ScopeKind::Block;
            for (size_t a = stmt_begin; init_after_ident && a < k; ++a) {
                if (toks[a].kind == TokenKind::Punct &&
                    toks[a].text == "->")
                    init_after_ident = false;
            }
            if (paren_depth > 0 || stmt_has_assign ||
                init_after_ident) {
                int depth = 0;
                while (k < toks.size()) {
                    if (toks[k].kind == TokenKind::Punct) {
                        if (toks[k].text == "{")
                            ++depth;
                        else if (toks[k].text == "}" && --depth == 0)
                            break;
                    }
                    ++k;
                }
                continue;
            }
            scopes.push_back(openerKind(k));
            stmt_begin = k + 1;
            stmt_has_assign = false;
        } else if (t.text == "}") {
            if (!scopes.empty())
                scopes.pop_back();
            stmt_begin = k + 1;
            stmt_has_assign = false;
        } else if (t.text == ";" && paren_depth == 0) {
            // Declarations live at namespace/class scope or are
            // static locals inside blocks; expressions inside blocks
            // are filtered by the has_static requirement.
            flagStatement(stmt_begin, k);
            stmt_begin = k + 1;
            stmt_has_assign = false;
        }
    }
}

// --------------------------------------------------------------- //
// parallel-capture-mutation / parallel-fp-reduction
// --------------------------------------------------------------- //

size_t
matchForward(const std::vector<Token> &toks, size_t open,
             const char *open_c, const char *close_c)
{
    int depth = 0;
    for (size_t k = open; k < toks.size(); ++k) {
        if (toks[k].kind != TokenKind::Punct)
            continue;
        if (toks[k].text == open_c)
            ++depth;
        else if (toks[k].text == close_c && --depth == 0)
            return k;
    }
    return toks.size();
}

size_t
matchBackward(const std::vector<Token> &toks, size_t close,
              const char *open_c, const char *close_c)
{
    int depth = 0;
    for (size_t k = close + 1; k-- > 0;) {
        if (toks[k].kind != TokenKind::Punct)
            continue;
        if (toks[k].text == close_c)
            ++depth;
        else if (toks[k].text == open_c && --depth == 0)
            return k;
    }
    return 0;
}

bool
isAssignOp(const std::string &t)
{
    return t == "=" || t == "+=" || t == "-=" || t == "*=" ||
        t == "/=" || t == "%=" || t == "&=" || t == "|=" ||
        t == "^=" || t == "<<=" || t == ">>=";
}

/**
 * Collect identifiers that are declared inside [begin, end):
 * parameters and body-local declarations. Heuristic: an identifier
 * preceded by a type-ish token (another identifier, `>`, `&`, `*`)
 * counts as declared, plus comma-continuation declarators in the
 * same statement. The bias is deliberate — over-collecting shrinks
 * the finding set, never grows it.
 */
std::set<std::string>
collectDeclared(const std::vector<Token> &toks, size_t begin,
                size_t end)
{
    std::set<std::string> declared;
    bool decl_stmt = false;
    int depth = 0;
    for (size_t k = begin; k < end; ++k) {
        const Token &t = toks[k];
        if (t.kind == TokenKind::Punct) {
            if (t.text == "(" || t.text == "[" || t.text == "{")
                ++depth;
            else if (t.text == ")" || t.text == "]" || t.text == "}")
                --depth;
            else if (t.text == ";")
                decl_stmt = false;
            continue;
        }
        if (t.kind != TokenKind::Identifier || k == begin)
            continue;
        const Token &prev = toks[k - 1];
        const bool type_prev =
            (prev.kind == TokenKind::Identifier &&
             !isKeyword(prev.text)) ||
            (prev.kind == TokenKind::Punct &&
             (prev.text == ">" || prev.text == "&" ||
              prev.text == "*"));
        if (type_prev) {
            declared.insert(t.text);
            if (depth == 0)
                decl_stmt = true;
        } else if (decl_stmt && depth == 0 &&
                   prev.kind == TokenKind::Punct && prev.text == ",") {
            // double gl = 0.0, hl = 0.0;
            declared.insert(t.text);
        }
    }
    return declared;
}

/** Body tokens that mark explicit synchronization. */
bool
bodyTakesLockOrAtomics(const std::vector<Token> &toks, size_t begin,
                       size_t end)
{
    for (size_t k = begin; k < end; ++k) {
        if (toks[k].kind != TokenKind::Identifier)
            continue;
        const std::string &t = toks[k].text;
        if (t == "lock_guard" || t == "unique_lock" ||
            t == "scoped_lock" || t == "atomic" ||
            t == "atomic_ref" || t == "fetch_add" ||
            t == "fetch_sub" || t == "fetch_or" ||
            t == "fetch_and" || t == "exchange" ||
            t == "compare_exchange_weak" ||
            t == "compare_exchange_strong")
            return true;
    }
    return false;
}

/**
 * Walk the LHS postfix chain backwards from the token before an
 * assignment operator. Returns the base identifier, or "" if the
 * LHS is not a simple ident/member chain; sets `subscripted` when
 * any [] appears in the chain (slot writes are sanctioned).
 */
std::string
lhsBase(const std::vector<Token> &toks, size_t op, bool &subscripted)
{
    subscripted = false;
    size_t k = op;
    while (k-- > 0) {
        const Token &t = toks[k];
        if (t.kind == TokenKind::Punct && t.text == "]") {
            subscripted = true;
            const size_t open = matchBackward(toks, k, "[", "]");
            if (open == 0)
                return "";
            k = open;
            continue;
        }
        if (t.kind == TokenKind::Identifier) {
            if (k > 0 && toks[k - 1].kind == TokenKind::Punct &&
                (toks[k - 1].text == "." ||
                 toks[k - 1].text == "->")) {
                --k; // continue through the member chain
                continue;
            }
            return isKeyword(t.text) ? "" : t.text;
        }
        return "";
    }
    return "";
}

void
analyzeParallelBody(const FileContext &ctx,
                    const std::vector<Token> &toks, size_t body_begin,
                    size_t body_end,
                    const std::set<std::string> &declared,
                    std::vector<Violation> &out)
{
    if (bodyTakesLockOrAtomics(toks, body_begin, body_end))
        return;
    for (size_t k = body_begin; k < body_end; ++k) {
        const Token &t = toks[k];
        if (t.kind != TokenKind::Punct)
            continue;

        std::string base;
        bool subscripted = false;
        bool reduction = false;
        if (isAssignOp(t.text)) {
            base = lhsBase(toks, k, subscripted);
            if (base.empty() || subscripted)
                continue;
            if (t.text != "=") {
                reduction = true;
            } else {
                // `x = x + v` / `x = accumulate(...)` style: the RHS
                // re-reads the target or runs a fold.
                for (size_t r = k + 1; r < body_end; ++r) {
                    if (toks[r].kind == TokenKind::Punct &&
                        toks[r].text == ";")
                        break;
                    if (toks[r].kind == TokenKind::Identifier &&
                        (toks[r].text == base ||
                         toks[r].text == "accumulate" ||
                         toks[r].text == "reduce" ||
                         toks[r].text == "inner_product")) {
                        reduction = true;
                        break;
                    }
                }
            }
        } else if (t.text == "++" || t.text == "--") {
            // Prefix: operand follows; postfix: chain precedes.
            if (k + 1 < body_end &&
                toks[k + 1].kind == TokenKind::Identifier) {
                base = toks[k + 1].text;
            } else {
                base = lhsBase(toks, k, subscripted);
            }
            if (base.empty() || subscripted || isKeyword(base))
                continue;
        } else {
            continue;
        }

        if (declared.count(base) || base == "this")
            continue;
        const size_t line_idx = static_cast<size_t>(t.line - 1);
        const char *rule =
            reduction ? "parallel-fp-reduction"
                      : "parallel-capture-mutation";
        if (allows(ctx, line_idx, rule))
            continue;
        out.push_back(
            {ctx.path, t.line, rule,
             reduction
                 ? "thread-order reduction into captured `" + base +
                       "` inside a parallelFor body is "
                       "nondeterministic; accumulate per-task "
                       "partials and merge them in task-index order "
                       "(DESIGN.md §6)"
                 : "parallelFor body writes captured `" + base +
                       "` without atomic/mutex/per-task scratch; "
                       "write a preallocated per-task slot "
                       "(out[i] = ...) instead (DESIGN.md §6)"});
    }
}

void
checkParallelCaptures(const FileContext &ctx,
                      std::vector<Violation> &out)
{
    if (ctx.zone == Zone::Other && !srcLike(ctx.zone))
        return; // unreachable; keeps the zone intent explicit
    const auto &toks = ctx.lexed.tokens;
    for (size_t k = 0; k + 1 < toks.size(); ++k) {
        if (toks[k].kind != TokenKind::Identifier ||
            (toks[k].text != "parallelFor" &&
             toks[k].text != "parallelForEach"))
            continue;
        if (toks[k + 1].kind != TokenKind::Punct ||
            toks[k + 1].text != "(")
            continue;
        const size_t call_close =
            matchForward(toks, k + 1, "(", ")");

        // Find the inline lambda argument: the first '[' directly
        // inside the call whose introducer captures by reference.
        for (size_t j = k + 2; j < call_close; ++j) {
            if (toks[j].kind != TokenKind::Punct ||
                toks[j].text != "[")
                continue;
            const size_t intro_close =
                matchForward(toks, j, "[", "]");
            bool by_ref = false;
            for (size_t c = j + 1; c < intro_close; ++c) {
                if (toks[c].kind == TokenKind::Punct &&
                    toks[c].text == "&")
                    by_ref = true;
            }
            // Parameter list (optional for a no-arg lambda).
            size_t p = intro_close + 1;
            std::set<std::string> declared;
            if (p < call_close &&
                toks[p].kind == TokenKind::Punct &&
                toks[p].text == "(") {
                const size_t params_close =
                    matchForward(toks, p, "(", ")");
                for (size_t c = p + 1; c < params_close; ++c) {
                    if (toks[c].kind == TokenKind::Identifier)
                        declared.insert(toks[c].text);
                }
                p = params_close + 1;
            }
            // Skip specifiers (mutable, noexcept, -> type) to the
            // body brace.
            while (p < call_close &&
                   !(toks[p].kind == TokenKind::Punct &&
                     toks[p].text == "{"))
                ++p;
            if (p >= call_close)
                break;
            const size_t body_close =
                matchForward(toks, p, "{", "}");
            if (by_ref) {
                auto body_decls =
                    collectDeclared(toks, p + 1, body_close);
                declared.insert(body_decls.begin(),
                                body_decls.end());
                analyzeParallelBody(ctx, toks, p + 1, body_close,
                                    declared, out);
            }
            break; // one lambda per call
        }
        k = call_close;
    }
}

} // namespace

void
registerConcurrencyRules(std::vector<Rule> &out)
{
    out.push_back({"parallel-capture-mutation",
                   "parallelFor lambda writes captured shared state",
                   [](const FileContext &ctx,
                      std::vector<Violation> &v) {
                       checkParallelCaptures(ctx, v);
                   }});
    // parallel-fp-reduction findings are emitted by the same scan;
    // register the id so SARIF metadata and allow() lookups resolve.
    out.push_back({"parallel-fp-reduction",
                   "thread-order FP reduction inside a parallel body",
                   [](const FileContext &,
                      std::vector<Violation> &) {}});
    out.push_back({"mutable-global-state",
                   "non-const static/global mutable state in src/",
                   [](const FileContext &ctx,
                      std::vector<Violation> &v) {
                       checkMutableGlobalState(ctx, v);
                   }});
    out.push_back({"wall-clock",
                   "wall-clock/this_thread outside bench/ and src/obs",
                   [](const FileContext &ctx,
                      std::vector<Violation> &v) {
                       checkWallClock(ctx, v);
                   }});
}

} // namespace boreas::lint
