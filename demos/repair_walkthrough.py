"""Walk through the iterative-repair encoder one step at a time.

The encoder appends a single flag symbol, then repeatedly removes the
first window whose least period is too small, logging just enough at the
end of the word (kernel, period, window index) for the decoder to undo
everything in reverse.
"""

from lpacodes import (
    Word,
    decode,
    derive_params,
    encode,
    first_violation,
    inverse_repair,
    repair,
)

q, n, p = 2, 14, 4
params = derive_params(q, n, p)
print(f"message length {n}, alphabet {q}, no window period below {p}")
print(f"derived window length l = {params.l}, index field = {params.index_width} symbols\n")

x = Word("10001010101100", 2)
print(f"message:        {x.to_text()}")

# Encoding is exactly this loop: repair until no window offends.
state = x + Word([1], q)
print(f"start state:    {state.to_text()}   (message + terminal flag 1)")
while first_violation(state, params.l, params.p) is not None:
    state, step = repair(state, params)
    print(
        f"  window at {step.index} repeats every {step.least_period} "
        f"symbols (kernel {step.kernel.to_text()}); remove it, log it:"
    )
    print(f"                {state.to_text()}")
codeword = state
assert codeword == encode(x, params)[0]
print(f"codeword:       {codeword.to_text()}")

check = first_violation(codeword, params.l, params.p)
print(f"\nclean? {'yes' if check is None else check}")

# Decoding peels records while the word ends in 0, then drops the flag.
print("\ndecoding:")
current = codeword
while current.symbols[-1] == 0:
    current = inverse_repair(current, params)
    print(f"  undo ->       {current.to_text()}")
print(f"recovered:      {current[:n].to_text()}")
assert decode(codeword, params) == x
