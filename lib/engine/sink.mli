(** Crash-safe chunked export sink.

    Fact tables are emitted shard-at-a-time: every shard is written to a
    [<name>.tmp] temp file and atomically renamed into place, then recorded
    (size + CRC-32) in a per-run [MANIFEST.json] checkpoint that is itself
    rewritten atomically after every commit.  A run killed at any point
    leaves either nothing or a fully committed prefix of shards plus at most
    one stale temp file; reopening the sink with [~resume:true] skips every
    committed shard, and because generation and rendering are deterministic
    per shard (stream-split RNG, templated splicing), the resumed run
    reproduces the remaining shards byte-identically.

    All file operations go through a {!backend} record so the fault-injection
    harness can interpose short writes, disk-full failures and simulated
    kills ({!faulty}) without touching the production path. *)

exception Io_failure of string
(** A genuine I/O failure (ENOSPC, EIO, permission, short write that made no
    progress).  The failing shard's temp file has been removed — an aborted
    run leaves no orphaned temp files, only committed shards. *)

exception Injected_crash of string
(** Raised by a {!faulty} backend to simulate a kill: no cleanup runs, the
    in-flight temp file is left behind exactly as a dead process would leave
    it.  Never raised by {!os_backend}. *)

type file

type backend = {
  bk_open : string -> file;
  bk_write : file -> Bytes.t -> pos:int -> len:int -> int;
      (** may write fewer than [len] bytes; returns the count accepted *)
  bk_close : file -> unit;
  bk_rename : src:string -> dst:string -> unit;
  bk_remove : string -> unit;
}

val os_backend : backend
(** [Unix] implementation; every [Unix_error] is rewrapped as
    {!Io_failure}. *)

type fault = {
  enospc_after_bytes : int option;
      (** fail every write once this many bytes were accepted in total *)
  crash_after_shards : int option;
      (** simulate a kill at the rename of shard [n] (0-based): exactly [n]
          shards end up committed — also with concurrent writers — and every
          later rename fails, leaving its temp file behind *)
  short_writes : bool;
      (** accept at most half of every write request (min 1 byte) —
          exercises the caller's partial-write loop *)
}

val no_faults : fault

val faulty : fault -> backend -> backend
(** Wrap a backend with injected faults.  Counters (bytes accepted, shards
    renamed) are per-wrapper and atomic, so one [faulty] value describes one
    simulated incident even when several domains write through it. *)

val crc32 : ?crc:int -> Bytes.t -> pos:int -> len:int -> int
(** Incremental CRC-32 (IEEE 802.3, the zlib polynomial), as a non-negative
    int.  [crc] defaults to 0, the empty-prefix value; feed the previous
    result to extend.  [crc32 "123456789"] = [0xCBF43926].  Eight bytes
    per step (slicing-by-8).
    @raise Invalid_argument if [pos] and [len] are not a range of [b]. *)

val mkdir_p : string -> unit
(** Recursive mkdir, hardened against concurrent creation: a directory that
    appears between the existence check and the [mkdir] (another domain or
    process racing us) is success, not an error.
    @raise Io_failure when creation fails for any other reason (a path
    component is a file, permission denied, …). *)

val remove_surplus : dir:string -> (int -> string) -> int -> unit
(** [remove_surplus ~dir name k] deletes [name k], [name (k + 1)], … in
    [dir], stopping at the first that does not exist: the shards an earlier
    export with more of them left behind, which would corrupt
    concatenation.  Call it before sealing the manifest.
    @raise Io_failure when one exists but cannot be removed (a directory
    squatting on the name, permission denied, …). *)

type shard = {
  sh_name : string;
  sh_seq : int;
      (** global concatenation position (table order, then shard index);
          {!completed} and the manifest are sorted by it, so a multi-writer
          run records the same manifest as a serial one *)
  sh_bytes : int;  (** bytes on disk (compressed when a wrapper compresses) *)
  sh_raw : int;
      (** uncompressed payload bytes ({!add_raw}); equals [sh_bytes] when no
          wrapper reported *)
  sh_crc : int;
}

type t
(** An open run: target directory, backend, and the committed-shard
    checkpoint.  Commit bookkeeping (including the manifest rewrite) is
    mutex-protected, so shards may be written concurrently from several
    domains; the bytes of each individual shard still come from exactly one
    writer. *)

val manifest_path : dir:string -> string
(** [dir/MANIFEST.json]. *)

val create :
  ?backend:backend ->
  ?resume:bool ->
  dir:string ->
  run_id:string ->
  unit ->
  t
(** Open a run over [dir] (created if missing).  Stale [*.tmp] files from a
    killed run are always removed.  The checkpoint is {!manifest_path}.
    With [~resume:true] and an existing
    manifest whose [run_id] matches, committed shards whose entry parses
    (name, size and an 8-hex-digit CRC-32) and whose files still exist with
    the recorded size are loaded and subsequently skipped by
    {!write_shard}; any other entry is rendered again.  A missing or
    mismatched manifest (or a different [run_id] — the caller must encode
    everything that changes the bytes: seed, scale, chunk size, format)
    starts fresh.  The [run_id] must be free of newlines and double
    quotes. *)

val is_done : t -> string -> bool
(** Whether a shard of this name is already committed (loaded from the
    manifest on resume, or written earlier in this run).  Check before
    rendering — skipping the render is where resume saves its time. *)

val completed : t -> shard list
(** Committed shards in [sh_seq] (concatenation) order. *)

val resumed_shards : t -> int
(** Shards that were already committed when the run was opened and have not
    been retracted since ({!retract} resets it to 0). *)

val bytes_written : t -> int
(** Bytes committed by {!write_shard} in this process (excludes resumed
    shards). *)

type writer

val put : writer -> Bytes.t -> pos:int -> len:int -> unit
(** Append bytes to the open shard, looping over partial backend writes.
    @raise Io_failure when the backend fails or stops making progress. *)

val add_raw : writer -> int -> unit
(** Record [n] uncompressed payload bytes for this shard.  Called by
    compressing wrappers (the gzip sink) so the manifest can report both
    sides; never calling it makes [sh_raw] default to [sh_bytes]. *)

val write_shard : t -> ?seq:int -> name:string -> (writer -> unit) -> unit
(** [write_shard t ~name body] streams one shard: opens [name.tmp] under the
    run directory, runs [body] (which calls {!put}), closes, atomically
    renames to [name], appends the shard to the manifest and atomically
    rewrites it.  No-op if [name] is already committed.  [seq] fixes the
    shard's global concatenation position; it defaults to a per-sink
    counter (correct for serial writers).  On {!Io_failure} the temp file
    is removed before the exception propagates; on {!Injected_crash}
    nothing is cleaned up (that is the point). *)

val retract : t -> unit
(** Un-commit every shard, resumed ones included: empty the manifest
    (rewritten atomically, no longer marked complete), delete the shard
    files, and make {!is_done} answer false and {!resumed_shards} 0.  This
    is how a live exporter discards a generation attempt that died: the
    retry may generate different bytes, and a shard resumed from a killed
    run may hold a dead attempt's bytes too.  {!bytes_written} still counts
    the retracted shards' I/O. *)

val finish : t -> unit
(** Mark the run complete in the manifest (["complete": true]) — a resumed
    run that finds a complete matching manifest skips every shard. *)
