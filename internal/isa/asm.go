package isa

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Assemble parses the textual program format and returns the expanded
// micro-op program.  The syntax, one statement per line:
//
//	ld  ADDR            ; load word
//	st  ADDR, VAL       ; store word
//	delay N             ; stall N CPU cycles
//	lock N              ; acquire critical-section lock N
//	unlock N            ; release lock N
//	clean ADDR          ; write back + invalidate the line holding ADDR
//	inval ADDR          ; invalidate the line holding ADDR
//	waiteq ADDR, VAL    ; poll ADDR until it reads VAL
//	nop
//	halt                ; optional; appended automatically if missing
//
//	.repeat N           ; expand the enclosed block N times
//	  ...
//	.end
//
// Numbers are Go literals (0x..., decimal).  Inside a .repeat block the
// symbol @ in any operand expands to the current iteration index (0-based),
// so `st 0x10000000+@*4, @` strides across words.  Simple +, * arithmetic
// (left to right, no precedence, no parentheses) is supported in operands.
// Comments run from ';' or '#' to end of line.  Blank lines are ignored.
// Each .repeat count is at most 2^20, and the whole expansion at most 2^22
// ops plus .repeat iterations, so nested blocks cannot multiply into an
// unbounded program or loop.
func Assemble(src string) (Program, error) {
	lines := strings.Split(src, "\n")
	steps := 0
	prog, rest, err := assembleBlock(lines, 0, -1, &steps)
	if err != nil {
		return nil, err
	}
	if rest != len(lines) {
		return nil, fmt.Errorf("isa: line %d: unexpected .end", rest+1)
	}
	if len(prog) == 0 || prog[len(prog)-1].Kind != Halt {
		prog = append(prog, Op{Kind: Halt})
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// maxAssembleSteps bounds Assemble's work: every op emitted and every .repeat
// iteration, skipped bodies included, is one step.
const maxAssembleSteps = 1 << 22

// assembleBlock assembles lines[start:] until a matching ".end" (or EOF for
// the top level), expanding nested .repeat blocks with iteration index it.
// It returns the ops and the index of the line after the block.  *steps
// counts the work done so far against maxAssembleSteps.
func assembleBlock(lines []string, start, it int, steps *int) (Program, int, error) {
	var out Program
	i := start
	for i < len(lines) {
		if *steps > maxAssembleSteps {
			return nil, 0, fmt.Errorf("isa: line %d: program expands beyond %d ops and .repeat iterations", i+1, maxAssembleSteps)
		}
		raw := lines[i]
		stmt := stripComment(raw)
		if stmt == "" {
			i++
			continue
		}
		fields := strings.Fields(stmt)
		mnemonic := strings.ToLower(fields[0])
		switch mnemonic {
		case ".end":
			return out, i, nil
		case ".repeat":
			if len(fields) != 2 {
				return nil, 0, fmt.Errorf("isa: line %d: .repeat needs a count", i+1)
			}
			n, err := evalOperand(fields[1], it)
			if err != nil {
				return nil, 0, fmt.Errorf("isa: line %d: %v", i+1, err)
			}
			if n < 0 || n > 1<<20 {
				return nil, 0, fmt.Errorf("isa: line %d: .repeat count %d out of range", i+1, n)
			}
			var end int
			for k := int64(0); k < n; k++ {
				*steps++
				body, e, err := assembleBlock(lines, i+1, int(k), steps)
				if err != nil {
					return nil, 0, err
				}
				if e >= len(lines) {
					return nil, 0, fmt.Errorf("isa: line %d: .repeat without .end", i+1)
				}
				end = e
				out = append(out, body...)
			}
			if n == 0 {
				// Still need to locate the matching .end to skip the body.
				_, e, err := assembleBlock(lines, i+1, 0, steps)
				if err != nil {
					return nil, 0, err
				}
				if e >= len(lines) {
					return nil, 0, fmt.Errorf("isa: line %d: .repeat without .end", i+1)
				}
				end = e
			}
			i = end + 1
		default:
			op, err := parseStatement(stmt, it)
			if err != nil {
				return nil, 0, fmt.Errorf("isa: line %d: %v", i+1, err)
			}
			out = append(out, op)
			*steps++
			i++
		}
	}
	return out, i, nil
}

func stripComment(line string) string {
	if idx := strings.IndexAny(line, ";#"); idx >= 0 {
		line = line[:idx]
	}
	return strings.TrimSpace(line)
}

func parseStatement(stmt string, it int) (Op, error) {
	fields := strings.Fields(stmt)
	mnemonic := strings.ToLower(fields[0])
	rest := strings.TrimSpace(strings.TrimPrefix(stmt, fields[0]))
	var args []string
	if rest != "" {
		for _, a := range strings.Split(rest, ",") {
			args = append(args, strings.TrimSpace(a))
		}
	}
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%s takes %d operand(s), got %d", mnemonic, n, len(args))
		}
		return nil
	}
	arg := func(n int) (int64, error) { return evalOperand(args[n], it) }
	// count is the single operand of a counted op, rejected rather than
	// truncated when Op.N cannot hold it.
	count := func() (int32, error) {
		if err := need(1); err != nil {
			return 0, err
		}
		n, err := arg(0)
		if err != nil {
			return 0, err
		}
		if n < math.MinInt32 || n > math.MaxInt32 {
			return 0, fmt.Errorf("%s count %d out of range", mnemonic, n)
		}
		return int32(n), nil
	}

	switch mnemonic {
	case "nop":
		if err := need(0); err != nil {
			return Op{}, err
		}
		return Op{Kind: Nop}, nil
	case "halt":
		if err := need(0); err != nil {
			return Op{}, err
		}
		return Op{Kind: Halt}, nil
	case "ld":
		if err := need(1); err != nil {
			return Op{}, err
		}
		a, err := arg(0)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: Read, Addr: uint32(a)}, nil
	case "st":
		if err := need(2); err != nil {
			return Op{}, err
		}
		a, err := arg(0)
		if err != nil {
			return Op{}, err
		}
		v, err := arg(1)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: Write, Addr: uint32(a), Val: uint32(v)}, nil
	case "waiteq":
		if err := need(2); err != nil {
			return Op{}, err
		}
		a, err := arg(0)
		if err != nil {
			return Op{}, err
		}
		v, err := arg(1)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: WaitEq, Addr: uint32(a), Val: uint32(v)}, nil
	case "delay":
		n, err := count()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: Delay, N: n}, nil
	case "lock":
		n, err := count()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: LockAcquire, N: n}, nil
	case "unlock":
		n, err := count()
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: LockRelease, N: n}, nil
	case "clean":
		if err := need(1); err != nil {
			return Op{}, err
		}
		a, err := arg(0)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: CleanLine, Addr: uint32(a)}, nil
	case "inval":
		if err := need(1); err != nil {
			return Op{}, err
		}
		a, err := arg(0)
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: InvalLine, Addr: uint32(a)}, nil
	default:
		return Op{}, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
}

// evalOperand evaluates a left-to-right +/* expression of numbers and the
// iteration symbol @.
func evalOperand(expr string, it int) (int64, error) {
	expr = strings.ReplaceAll(expr, " ", "")
	if expr == "" {
		return 0, fmt.Errorf("empty operand")
	}
	// Tokenize into numbers and operators.
	var total, cur int64
	var pendingAdd int64
	haveCur := false
	lastWasOp := false
	op := byte(0)
	apply := func(v int64) {
		lastWasOp = false
		if !haveCur {
			cur = v
			haveCur = true
			return
		}
		switch op {
		case '+':
			pendingAdd += cur
			cur = v
		case '*':
			cur *= v
		}
	}
	i := 0
	for i < len(expr) {
		c := expr[i]
		switch {
		case c == '@':
			if it < 0 {
				return 0, fmt.Errorf("@ used outside .repeat")
			}
			apply(int64(it))
			i++
		case c == '+' || c == '*':
			if !haveCur || lastWasOp {
				return 0, fmt.Errorf("operator %q with no left operand", c)
			}
			op = c
			lastWasOp = true
			i++
		default:
			j := i
			for j < len(expr) && expr[j] != '+' && expr[j] != '*' && expr[j] != '@' {
				j++
			}
			v, err := strconv.ParseInt(expr[i:j], 0, 64)
			if err != nil {
				return 0, fmt.Errorf("bad number %q", expr[i:j])
			}
			apply(v)
			i = j
		}
	}
	if lastWasOp {
		return 0, fmt.Errorf("expression %q ends with an operator", expr)
	}
	total = pendingAdd + cur
	return total, nil
}

// Format renders a program back to assembly text (one op per line).
func Format(p Program) string {
	var sb strings.Builder
	for _, op := range p {
		sb.WriteString(op.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
