#include "workload/assembler.hh"

#include <cctype>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "isa/program_builder.hh"
#include "util/logging.hh"

namespace gdiff {
namespace workload {

using namespace isa;

namespace {

/** Map of symbolic register names. */
const std::map<std::string, Reg> &
registerNames()
{
    static const std::map<std::string, Reg> names = [] {
        std::map<std::string, Reg> m;
        m["zero"] = reg::zero;
        m["v0"] = reg::v0;
        m["v1"] = reg::v1;
        for (unsigned i = 0; i < 4; ++i)
            m["a" + std::to_string(i)] = static_cast<Reg>(reg::a0 + i);
        for (unsigned i = 0; i < 8; ++i)
            m["t" + std::to_string(i)] = static_cast<Reg>(reg::t0 + i);
        m["t8"] = reg::t8;
        m["t9"] = reg::t9;
        for (unsigned i = 0; i < 8; ++i)
            m["s" + std::to_string(i)] = static_cast<Reg>(reg::s0 + i);
        m["s8"] = reg::s8;
        m["fp"] = reg::s8;
        m["gp"] = reg::gp;
        m["sp"] = reg::sp;
        m["ra"] = reg::ra;
        for (unsigned i = 0; i < numRegs; ++i)
            m["r" + std::to_string(i)] = static_cast<Reg>(i);
        return m;
    }();
    return names;
}

struct Token
{
    std::string text;
};

/** Per-line parsing context with error reporting. */
class LineParser
{
  public:
    LineParser(const std::string &line, unsigned line_no)
        : lineNo(line_no)
    {
        // strip comments, split on whitespace/commas/parens but keep
        // parens as separate tokens so off(base) parses cleanly
        std::string clean;
        for (char c : line) {
            if (c == '#')
                break;
            clean += c;
        }
        std::string cur;
        auto flush = [&] {
            if (!cur.empty()) {
                tokens.push_back({cur});
                cur.clear();
            }
        };
        for (char c : clean) {
            if (std::isspace(static_cast<unsigned char>(c)) ||
                c == ',') {
                flush();
            } else if (c == '(' || c == ')') {
                flush();
                tokens.push_back({std::string(1, c)});
            } else {
                cur += c;
            }
        }
        flush();
    }

    bool empty() const { return tokens.empty(); }
    size_t size() const { return tokens.size(); }

    const std::string &
    at(size_t i) const
    {
        if (i >= tokens.size())
            fatal("line %u: missing operand", lineNo);
        return tokens[i].text;
    }

    Reg
    regAt(size_t i) const
    {
        const std::string &t = at(i);
        auto it = registerNames().find(t);
        if (it == registerNames().end())
            fatal("line %u: unknown register '%s'", lineNo, t.c_str());
        return it->second;
    }

    int64_t
    immAt(size_t i) const
    {
        const std::string &t = at(i);
        try {
            size_t pos = 0;
            int64_t v = std::stoll(t, &pos, 0);
            if (pos != t.size())
                fatal("line %u: bad immediate '%s'", lineNo, t.c_str());
            return v;
        } catch (const std::exception &) {
            fatal("line %u: bad immediate '%s'", lineNo, t.c_str());
        }
    }

    /** Expect exactly n operand tokens after the mnemonic. */
    void
    expect(size_t n) const
    {
        if (tokens.size() != n + 1)
            fatal("line %u: expected %zu operands for '%s'", lineNo, n,
                  tokens[0].text.c_str());
    }

    unsigned lineNo;
    std::vector<Token> tokens;
};

struct ParseResult
{
    isa::Program program;
    std::vector<std::pair<uint64_t, int64_t>> memoryImage;
    std::array<int64_t, numRegs> initialRegs{};
    std::vector<std::pair<std::string, uint32_t>> labelIndices;
    bool sawDirectives = false;
};

ParseResult
parse(const std::string &source, const std::string &name)
{
    ParseResult out;
    ProgramBuilder b(name);
    std::map<std::string, Label> labels;
    auto label_for = [&](const std::string &n) {
        auto it = labels.find(n);
        if (it == labels.end())
            it = labels.emplace(n, b.newLabel()).first;
        return it->second;
    };

    std::istringstream in(source);
    std::string line;
    unsigned line_no = 0;
    bool any_instruction = false;
    while (std::getline(in, line)) {
        ++line_no;
        LineParser p(line, line_no);
        if (p.empty())
            continue;

        std::string head = p.at(0);

        // directives --------------------------------------------------
        if (head == ".reg") {
            p.expect(2);
            out.initialRegs[p.regAt(1)] = p.immAt(2);
            out.sawDirectives = true;
            continue;
        }
        if (head == ".word") {
            p.expect(2);
            out.memoryImage.emplace_back(
                static_cast<uint64_t>(p.immAt(1)), p.immAt(2));
            out.sawDirectives = true;
            continue;
        }
        if (head[0] == '.')
            fatal("line %u: unknown directive '%s'", line_no,
                  head.c_str());

        // labels (possibly followed by an instruction on one line) ----
        while (!head.empty() && head.back() == ':') {
            std::string label_name = head.substr(0, head.size() - 1);
            if (label_name.empty())
                fatal("line %u: empty label", line_no);
            b.bind(label_for(label_name));
            out.labelIndices.emplace_back(label_name, b.here());
            p.tokens.erase(p.tokens.begin());
            if (p.empty())
                break;
            head = p.at(0);
        }
        if (p.empty())
            continue;

        any_instruction = true;
        // instructions -------------------------------------------------
        if (head == "ld" || head == "sd") {
            // op reg, off ( base )
            if (p.size() != 6 || p.at(3) != "(" || p.at(5) != ")")
                fatal("line %u: expected '%s reg, off(base)'", line_no,
                      head.c_str());
            Reg r = p.regAt(1);
            int64_t off = p.immAt(2);
            Reg base = p.regAt(4);
            if (head == "ld")
                b.load(r, base, off);
            else
                b.store(r, base, off);
        } else if (head == "li") {
            p.expect(2);
            b.li(p.regAt(1), p.immAt(2));
        } else if (head == "mov") {
            p.expect(2);
            b.mov(p.regAt(1), p.regAt(2));
        } else if (head == "beq" || head == "bne" || head == "blt" ||
                   head == "bge") {
            p.expect(3);
            Label l = label_for(p.at(3));
            if (head == "beq")
                b.beq(p.regAt(1), p.regAt(2), l);
            else if (head == "bne")
                b.bne(p.regAt(1), p.regAt(2), l);
            else if (head == "blt")
                b.blt(p.regAt(1), p.regAt(2), l);
            else
                b.bge(p.regAt(1), p.regAt(2), l);
        } else if (head == "j") {
            p.expect(1);
            b.jump(label_for(p.at(1)));
        } else if (head == "jal") {
            p.expect(2);
            b.jal(p.regAt(1), label_for(p.at(2)));
        } else if (head == "jr") {
            p.expect(1);
            b.jr(p.regAt(1));
        } else if (head == "jalr") {
            p.expect(2);
            b.jalr(p.regAt(1), p.regAt(2));
        } else if (head == "nop") {
            p.expect(0);
            b.nop();
        } else if (head == "halt") {
            p.expect(0);
            b.halt();
        } else {
            // three-operand ALU forms: rrr or rri
            p.expect(3);
            Reg rd = p.regAt(1);
            Reg rs1 = p.regAt(2);
            const std::string &third = p.at(3);
            bool imm_form = registerNames().count(third) == 0;
            if (imm_form) {
                int64_t imm = p.immAt(3);
                if (head == "addi")
                    b.addi(rd, rs1, imm);
                else if (head == "andi")
                    b.andi(rd, rs1, imm);
                else if (head == "ori")
                    b.ori(rd, rs1, imm);
                else if (head == "xori")
                    b.xori(rd, rs1, imm);
                else if (head == "slli")
                    b.slli(rd, rs1, imm);
                else if (head == "srli")
                    b.srli(rd, rs1, imm);
                else if (head == "srai")
                    b.srai(rd, rs1, imm);
                else if (head == "slti")
                    b.slti(rd, rs1, imm);
                else
                    fatal("line %u: unknown mnemonic '%s'", line_no,
                          head.c_str());
            } else {
                Reg rs2 = p.regAt(3);
                if (head == "add")
                    b.add(rd, rs1, rs2);
                else if (head == "sub")
                    b.sub(rd, rs1, rs2);
                else if (head == "mul")
                    b.mul(rd, rs1, rs2);
                else if (head == "div")
                    b.div(rd, rs1, rs2);
                else if (head == "rem")
                    b.rem(rd, rs1, rs2);
                else if (head == "and")
                    b.and_(rd, rs1, rs2);
                else if (head == "or")
                    b.or_(rd, rs1, rs2);
                else if (head == "xor")
                    b.xor_(rd, rs1, rs2);
                else if (head == "sll")
                    b.sll(rd, rs1, rs2);
                else if (head == "srl")
                    b.srl(rd, rs1, rs2);
                else if (head == "sra")
                    b.sra(rd, rs1, rs2);
                else if (head == "slt")
                    b.slt(rd, rs1, rs2);
                else
                    fatal("line %u: unknown mnemonic '%s'", line_no,
                          head.c_str());
            }
        }
    }
    if (!any_instruction)
        fatal("assembly source '%s' contains no instructions",
              name.c_str());
    out.program = b.build();
    return out;
}

} // anonymous namespace

isa::Program
assemble(const std::string &source, const std::string &name)
{
    ParseResult r = parse(source, name);
    if (r.sawDirectives)
        fatal("assemble(): directives present; use assembleWorkload()");
    return std::move(r.program);
}

Workload
assembleWorkload(const std::string &source, const std::string &name)
{
    ParseResult r = parse(source, name);
    Workload w;
    w.program = std::move(r.program);
    w.memoryImage = std::move(r.memoryImage);
    w.initialRegs = r.initialRegs;
    for (const auto &[label, index] : r.labelIndices)
        w.markers.emplace_back(label, isa::indexToPc(index));
    return w;
}

Workload
assembleWorkloadFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open assembly file '%s'", path.c_str());
    std::stringstream ss;
    ss << in.rdbuf();
    return assembleWorkload(ss.str(), path);
}

} // namespace workload
} // namespace gdiff
