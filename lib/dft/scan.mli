(** Scan-chain insertion — the DFT answer to the paper's finding that a
    sparse density of encoding cripples sequential ATPG.

    A scanned register gets a mux in front of its data pin
    ([D' = scan_enable ? scan_in : D]); the scanned registers are chained
    from a new [scan_in] input to a new [scan_out] output.  With (full)
    scan, any state can be shifted in and out: state justification — the
    phase that the diluted encoding defeats — disappears. *)

type chain = {
  circuit : Netlist.Node.t;  (** the scanned circuit *)
  scan_enable : int;         (** PI index of the scan-enable input *)
  scan_in : int;             (** PI index of the scan-data input *)
  scanned : int array;       (** DFF positions included, in chain order *)
  length : int;
}

(** Insert a scan chain.  [positions] selects DFF positions (state-vector
    order); the default scans every non-constant register (full scan).
    The functional PIs/POs keep their order; [scan_enable] and [scan_in]
    are appended, and [scan_out] becomes the last PO. *)
val insert : ?positions:int array -> Netlist.Node.t -> chain

(** Widen a functional input vector for the scanned circuit
    (scan_enable = 0). *)
val functional_vector : chain -> bool array -> bool array

(** Shift sequence loading [state_code] (packed DFF bit vector, exact at
    any width) into the scanned registers: exactly [chain.length] vectors
    with scan_enable held high. *)
val load_sequence : chain -> Sim.Statekey.t -> Sim.Vectors.sequence

(** Partial-scan selection: greedily pick registers breaking all register
    cycles (highest-degree-first on the register graph).  Returns DFF
    positions for [insert ~positions]. *)
val select_cycle_breaking : Netlist.Node.t -> int array
