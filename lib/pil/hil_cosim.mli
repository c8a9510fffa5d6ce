(** Hardware-in-the-loop stage (§6).

    "More precise results can be obtained by the simulation of the
    complete hardware of the control unit in the loop with a simulator of
    the plant (so called hardware in the loop simulation — HIL) … the
    final version of the code is used."

    The application is the PIL build ({!Silvm_app}), run on the virtual
    MCU with its real peripherals: the TimerInt bean's {!Timer_periph}
    raises the periodic interrupt, the step reads the {!Qdec_periph}
    position register and the {!Gpio_periph} button pin through its
    sensor words, and its PWM word goes into the {!Pwm_periph} duty
    register, whose ratio drives the plant continuously between
    interrupts. Only the driver-call lines of the deployment build
    ([QD1_GetPosition], [PWM1_SetRatio16], ...) are not executed: their
    exchange words stand in for them. The remaining gap to silicon is
    the block-level cycle cost model.

    The rig is the paper's servo case study: PWM out, quadrature and
    button in, a DC motor as the plant. *)

type profile = {
  periods : int;
  controller_exec : Stats.summary;  (** seconds per step *)
  release_jitter : float;
      (** peak-to-peak variation of the control ISR release, s *)
  release_latency : Stats.summary;  (** timer tick to ISR start *)
  cpu_utilization : float;
  max_stack_bytes : int;
  overruns : int;  (** timer ticks that found the previous step running *)
  watchdog_bites : int;
      (** expiries of the optional watchdog (0 when none is armed) *)
}

type result = {
  profile : profile;
  trace : (float * (string * float) list) list;
}

val servo_run :
  ?preemptive:bool ->
  ?button:(float -> bool) ->
  ?background_load:float ->
  ?watchdog:float ->
  ?overrun_inject:(int -> int) ->
  built_mcu:Mcu_db.t ->
  app:Silvm_app.t ->
  motor:Dc_motor.params ->
  load:Load_profile.t ->
  encoder:Encoder.t ->
  periods:int ->
  unit ->
  result
(** Run [periods] control periods of [app] (initialised first, as the
    target boots) against a DC motor behind an ideal power stage, under
    the shaft [load]. The plant and peripherals couple on 16 sub-steps
    per control period; the trace records [speed], [theta] and
    [current] at the end of each period. [button] is the button pin's
    level over time (default released). [background_load] (default 0)
    adds a competing background ISR consuming that fraction of the CPU,
    for stress runs. [watchdog] arms a {!Wdog_periph} with that timeout;
    the control step refreshes it exactly as generated code calls
    [WD1_Clear], so starved steps show up as bites. [overrun_inject]
    returns extra CPU cycles charged to the given period's control step
    — a fault-injection tap (default inactive).
    @raise Invalid_argument when the timer bean's period is unattainable
    on [built_mcu]. *)
